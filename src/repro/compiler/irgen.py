"""Typed lowering from the mini-C AST to three-address IR.

Single-pass: names and types are resolved while lowering, raising
:class:`CompileError` on semantic violations.  The output is deliberately
naive -- every local variable (including parameters) lives in a stack slot
and constants are rematerialized at each use.  This *is* ``-O0``; all higher
levels are produced by the optimization passes in
:mod:`repro.compiler.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import ast_nodes as ast
from repro.compiler import ir
from repro.compiler.consteval import eval_const_expr
from repro.compiler.ctypes import (
    ArrayType,
    CType,
    INT,
    IntType,
    PointerType,
    UINT,
    VOID,
    common_type,
    promote,
)
from repro.errors import CompileError

MAX_REG_ARGS = 4

#: maps mini-C operator text to IR op names for the signed/unsigned cases
_ARITH_OPS = {
    "+": ("add", "add"),
    "-": ("sub", "sub"),
    "*": ("mul", "mul"),
    "/": ("div", "divu"),
    "%": ("rem", "remu"),
    "&": ("and", "and"),
    "|": ("or", "or"),
    "^": ("xor", "xor"),
    "<<": ("shl", "shl"),
    ">>": ("sar", "shr"),
}

_CMP_OPS = {
    "==": ("eq", "eq"),
    "!=": ("ne", "ne"),
    "<": ("lt", "ltu"),
    "<=": ("le", "leu"),
    ">": ("gt", "gtu"),
    ">=": ("ge", "geu"),
}


@dataclass
class _FuncSig:
    name: str
    return_type: CType
    param_types: list[CType]


@dataclass
class _LValue:
    """Where an assignable expression lives."""

    kind: str  # 'slot' | 'global' | 'mem'
    ctype: CType
    slot: ir.StackSlot | None = None
    symbol: str | None = None
    addr: ir.VReg | None = None
    offset: int = 0


class IRGenerator:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.module = ir.Module()
        self.signatures: dict[str, _FuncSig] = {}
        self.global_types: dict[str, CType] = {}
        self.func: ir.Function | None = None
        self.scopes: list[dict[str, object]] = []
        self.break_stack: list[str] = []
        self.continue_stack: list[str] = []
        self.jump_tables: dict[str, list[tuple[str, list[str]]]] = {}

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def generate(self) -> ir.Module:
        for decl in self.unit.globals:
            self._lower_global(decl)
        for func in self.unit.functions:
            if func.name in self.signatures:
                existing = self.signatures[func.name]
                new_sig = _FuncSig(
                    func.name, func.return_type, [p.ctype for p in func.params]
                )
                if (existing.return_type, existing.param_types) != (
                    new_sig.return_type,
                    new_sig.param_types,
                ):
                    raise CompileError(
                        f"conflicting declarations of {func.name!r}", func.line
                    )
            else:
                self.signatures[func.name] = _FuncSig(
                    func.name, func.return_type, [p.ctype for p in func.params]
                )
        for func in self.unit.functions:
            if func.body is not None:
                if func.name in self.module.functions:
                    raise CompileError(f"redefinition of {func.name!r}", func.line)
                self._lower_function(func)
        if "main" not in self.module.functions:
            raise CompileError("program has no 'main' function")
        return self.module

    # ------------------------------------------------------------------
    # globals
    # ------------------------------------------------------------------

    def _lower_global(self, decl: ast.GlobalDecl) -> None:
        if decl.name in self.global_types:
            raise CompileError(f"redefinition of global {decl.name!r}", decl.line)
        ctype = decl.ctype
        if isinstance(ctype, ArrayType):
            if ctype.length == -1:
                if decl.init_list is None:
                    raise CompileError(
                        f"array {decl.name!r} has neither size nor initializer", decl.line
                    )
                ctype = ArrayType(ctype.element, len(decl.init_list))
            if ctype.length <= 0:
                raise CompileError(f"array {decl.name!r} has invalid size", decl.line)
            element = ctype.element
            if not isinstance(element, IntType):
                raise CompileError("only integer arrays are supported", decl.line)
            values = [0] * ctype.length
            if decl.init_list is not None:
                if len(decl.init_list) > ctype.length:
                    raise CompileError(
                        f"too many initializers for {decl.name!r}", decl.line
                    )
                for index, expr in enumerate(decl.init_list):
                    values[index] = element.wrap(eval_const_expr(expr))
            self.module.globals[decl.name] = ir.GlobalVar(
                name=decl.name,
                size=ctype.size,
                element_size=element.size,
                init_values=values,
            )
        else:
            if decl.init_list is not None:
                raise CompileError(
                    f"scalar {decl.name!r} cannot take a brace initializer", decl.line
                )
            if isinstance(ctype, IntType):
                element_size = ctype.size
                value = ctype.wrap(eval_const_expr(decl.init)) if decl.init else 0
            elif isinstance(ctype, PointerType):
                element_size = 4
                value = eval_const_expr(decl.init) if decl.init else 0
            else:
                raise CompileError(f"cannot declare global of type {ctype}", decl.line)
            self.module.globals[decl.name] = ir.GlobalVar(
                name=decl.name,
                size=max(element_size, 1),
                element_size=element_size,
                init_values=[value],
            )
        self.global_types[decl.name] = ctype

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------

    def _lower_function(self, decl: ast.FunctionDecl) -> None:
        if len(decl.params) > MAX_REG_ARGS:
            raise CompileError(
                f"{decl.name!r} has {len(decl.params)} parameters; "
                f"at most {MAX_REG_ARGS} register arguments are supported",
                decl.line,
            )
        func = ir.Function(name=decl.name, params=[], returns_value=not decl.return_type.is_void())
        self.func = func
        self.scopes = [{}]
        self.break_stack = []
        self.continue_stack = []
        self.jump_tables[decl.name] = []

        for param in decl.params:
            ptype = param.ctype
            if isinstance(ptype, ArrayType):
                ptype = ptype.decay()
            vreg = func.new_vreg(param.name)
            func.params.append(vreg)
            slot = func.new_slot(4, name=param.name)
            self.emit(ir.StoreSlot(vreg, slot))
            self._declare(param.name, ("slot", slot, promote(ptype)), param.line)

        self._lower_stmt(decl.body)
        # implicit return (for void functions or main falling off the end)
        self.emit(ir.Return(None))
        self.module.functions[decl.name] = func
        self.func = None

    # ------------------------------------------------------------------
    # scope helpers
    # ------------------------------------------------------------------

    def emit(self, instr: ir.Instr) -> ir.Instr:
        self.func.instrs.append(instr)
        return instr

    def _declare(self, name: str, binding: object, line: int) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise CompileError(f"redeclaration of {name!r}", line)
        scope[name] = binding

    def _lookup(self, name: str, line: int):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.global_types:
            return ("global", name, self.global_types[name])
        raise CompileError(f"use of undeclared identifier {name!r}", line)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            if stmt.scoped:
                self.scopes.append({})
            for child in stmt.body:
                self._lower_stmt(child)
            if stmt.scoped:
                self.scopes.pop()
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl_stmt(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhileStmt):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.SwitchStmt):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.break_stack:
                raise CompileError("'break' outside loop or switch", stmt.line)
            self.emit(ir.Jump(self.break_stack[-1]))
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.continue_stack:
                raise CompileError("'continue' outside loop", stmt.line)
            self.emit(ir.Jump(self.continue_stack[-1]))
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        else:  # pragma: no cover
            raise CompileError(f"unhandled statement {type(stmt).__name__}", stmt.line)

    def _lower_decl_stmt(self, stmt: ast.DeclStmt) -> None:
        ctype = stmt.ctype
        if isinstance(ctype, ArrayType):
            if ctype.length == -1:
                if stmt.init_list is None:
                    raise CompileError(
                        f"array {stmt.name!r} has neither size nor initializer", stmt.line
                    )
                ctype = ArrayType(ctype.element, len(stmt.init_list))
            element = ctype.element
            if not isinstance(element, IntType):
                raise CompileError("only integer arrays are supported", stmt.line)
            slot = self.func.new_slot(ctype.size, name=stmt.name, is_array=True)
            self._declare(stmt.name, ("array_slot", slot, ctype), stmt.line)
            if stmt.init_list is not None:
                base = self.func.new_vreg(f"{stmt.name}.addr")
                slot.address_taken = True
                self.emit(ir.SlotAddr(base, slot))
                for index, expr in enumerate(stmt.init_list):
                    value, vtype = self._lower_expr(expr)
                    value = self._coerce_for_store(value, vtype, element)
                    self.emit(ir.Store(value, base, index * element.size, element.size))
        else:
            if stmt.init_list is not None:
                raise CompileError(
                    f"scalar {stmt.name!r} cannot take a brace initializer", stmt.line
                )
            if not (isinstance(ctype, IntType) or isinstance(ctype, PointerType)):
                raise CompileError(f"cannot declare local of type {ctype}", stmt.line)
            slot = self.func.new_slot(4, name=stmt.name)
            self._declare(stmt.name, ("slot", slot, ctype), stmt.line)
            if stmt.init is not None:
                value, vtype = self._lower_expr(stmt.init)
                value = self._wrap_to(value, vtype, ctype, stmt.line)
                self.emit(ir.StoreSlot(value, slot))

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        then_label = self.func.new_label("then")
        else_label = self.func.new_label("else") if stmt.else_body else None
        end_label = self.func.new_label("endif")
        self._lower_condition(stmt.cond, then_label, else_label or end_label)
        self.emit(ir.Label(then_label))
        self._lower_stmt(stmt.then_body)
        if stmt.else_body is not None:
            self.emit(ir.Jump(end_label))
            self.emit(ir.Label(else_label))
            self._lower_stmt(stmt.else_body)
        self.emit(ir.Label(end_label))

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        head = self.func.new_label("while_head")
        body = self.func.new_label("while_body")
        end = self.func.new_label("while_end")
        self.emit(ir.Label(head))
        self._lower_condition(stmt.cond, body, end)
        self.emit(ir.Label(body))
        self.break_stack.append(end)
        self.continue_stack.append(head)
        self._lower_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.emit(ir.Jump(head))
        self.emit(ir.Label(end))

    def _lower_do_while(self, stmt: ast.DoWhileStmt) -> None:
        body = self.func.new_label("do_body")
        cond = self.func.new_label("do_cond")
        end = self.func.new_label("do_end")
        self.emit(ir.Label(body))
        self.break_stack.append(end)
        self.continue_stack.append(cond)
        self._lower_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.emit(ir.Label(cond))
        self._lower_condition(stmt.cond, body, end)
        self.emit(ir.Label(end))

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = self.func.new_label("for_head")
        body = self.func.new_label("for_body")
        step = self.func.new_label("for_step")
        end = self.func.new_label("for_end")
        self.emit(ir.Label(head))
        if stmt.cond is not None:
            self._lower_condition(stmt.cond, body, end)
        self.emit(ir.Label(body))
        self.break_stack.append(end)
        self.continue_stack.append(step)
        self._lower_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        self.emit(ir.Label(step))
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self.emit(ir.Jump(head))
        self.emit(ir.Label(end))
        self.scopes.pop()

    # switch lowering: dense value sets become a bounds-checked jump table
    # (the paper's CDFG-recovery failure mode); sparse ones a compare chain.
    _JUMP_TABLE_MIN_CASES = 4
    _JUMP_TABLE_MIN_DENSITY = 0.5

    def _lower_switch(self, stmt: ast.SwitchStmt) -> None:
        scrutinee, stype = self._lower_expr(stmt.scrutinee)
        end = self.func.new_label("switch_end")
        case_labels: dict[int, str] = {}
        default_label = end
        for case in stmt.cases:
            label = self.func.new_label(
                "case_default" if case.value is None else f"case_{case.value & 0xFFFF_FFFF:x}"
            )
            if case.value is None:
                default_label = label
            else:
                case_labels[case.value] = label
            case.label = label  # type: ignore[attr-defined]

        values = sorted(case_labels)
        use_table = False
        if len(values) >= self._JUMP_TABLE_MIN_CASES:
            span = values[-1] - values[0] + 1
            if span > 0 and len(values) / span >= self._JUMP_TABLE_MIN_DENSITY and span <= 512:
                use_table = True

        if use_table:
            low, high = values[0], values[-1]
            span = high - low + 1
            normalized = self.func.new_vreg("sw_idx")
            base_const = self.func.new_vreg()
            self.emit(ir.Const(base_const, low))
            self.emit(ir.BinOp(normalized, "sub", scrutinee, base_const))
            bound = self.func.new_vreg()
            self.emit(ir.Const(bound, span - 1))
            self.emit(ir.Branch("gtu", normalized, bound, default_label))
            labels = [case_labels.get(low + i, default_label) for i in range(span)]
            table_name = f"_jt_{self.func.name}_{len(self.jump_tables[self.func.name])}"
            self.jump_tables[self.func.name].append((table_name, labels))
            self.emit(ir.SwitchJump(normalized, labels, table_name))
        else:
            for value in values:
                const = self.func.new_vreg()
                self.emit(ir.Const(const, value))
                self.emit(ir.Branch("eq", scrutinee, const, case_labels[value]))
            self.emit(ir.Jump(default_label))

        self.break_stack.append(end)
        for case in stmt.cases:
            self.emit(ir.Label(case.label))  # type: ignore[attr-defined]
            for child in case.body:
                self._lower_stmt(child)
        self.break_stack.pop()
        self.emit(ir.Label(end))

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        if stmt.value is None:
            if self.func.returns_value:
                raise CompileError("non-void function must return a value", stmt.line)
            self.emit(ir.Return(None))
        else:
            if not self.func.returns_value:
                raise CompileError("void function cannot return a value", stmt.line)
            value, _ = self._lower_expr(stmt.value)
            self.emit(ir.Return(value))

    # ------------------------------------------------------------------
    # conditions (branch contexts)
    # ------------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        if isinstance(expr, ast.BinaryExpr):
            if expr.op == "&&":
                mid = self.func.new_label("and_rhs")
                self._lower_condition(expr.left, mid, false_label)
                self.emit(ir.Label(mid))
                self._lower_condition(expr.right, true_label, false_label)
                return
            if expr.op == "||":
                mid = self.func.new_label("or_rhs")
                self._lower_condition(expr.left, true_label, mid)
                self.emit(ir.Label(mid))
                self._lower_condition(expr.right, true_label, false_label)
                return
            if expr.op in _CMP_OPS:
                left, ltype = self._lower_expr(expr.left)
                right, rtype = self._lower_expr(expr.right)
                ctype = common_type(ltype, rtype, expr.line)
                unsigned = isinstance(ctype, PointerType) or (
                    isinstance(ctype, IntType) and not ctype.signed
                )
                op = _CMP_OPS[expr.op][1 if unsigned else 0]
                self.emit(ir.Branch(op, left, right, true_label))
                self.emit(ir.Jump(false_label))
                return
        if isinstance(expr, ast.UnaryExpr) and expr.op == "!":
            self._lower_condition(expr.operand, false_label, true_label)
            return
        value, _ = self._lower_expr(expr)
        zero = self.func.new_vreg()
        self.emit(ir.Const(zero, 0))
        self.emit(ir.Branch("ne", value, zero, true_label))
        self.emit(ir.Jump(false_label))

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> tuple[ir.VReg, CType]:
        cls = type(expr)  # (no expression class is subclassed)
        if cls is ast.NumberExpr:
            dst = self.func.new_vreg()
            self.emit(ir.Const(dst, expr.value & 0xFFFF_FFFF))
            ctype = INT if expr.value <= 0x7FFF_FFFF else UINT
            return dst, ctype
        if cls is ast.NameExpr:
            return self._lower_name(expr)
        if cls is ast.UnaryExpr:
            return self._lower_unary(expr)
        if cls is ast.BinaryExpr:
            return self._lower_binary(expr)
        if cls is ast.AssignExpr:
            return self._lower_assign(expr)
        if cls is ast.ConditionalExpr:
            return self._lower_ternary(expr)
        if cls is ast.IndexExpr:
            lvalue = self._lower_lvalue(expr)
            return self._load_lvalue(lvalue)
        if cls is ast.CallExpr:
            return self._lower_call(expr)
        if cls is ast.CastExpr:
            value, vtype = self._lower_expr(expr.operand)
            return self._cast(value, vtype, expr.ctype, expr.line)
        if cls is ast.IncDecExpr:
            return self._lower_incdec(expr)
        raise CompileError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _lower_name(self, expr: ast.NameExpr) -> tuple[ir.VReg, CType]:
        binding = self._lookup(expr.name, expr.line)
        kind = binding[0]
        if kind == "slot":
            _, slot, ctype = binding
            dst = self.func.new_vreg(expr.name)
            self.emit(ir.LoadSlot(dst, slot))
            return dst, promote(ctype)
        if kind == "array_slot":
            _, slot, ctype = binding
            slot.address_taken = True
            dst = self.func.new_vreg(f"{expr.name}.addr")
            self.emit(ir.SlotAddr(dst, slot))
            return dst, ctype.decay()
        # global
        _, name, ctype = binding
        if isinstance(ctype, ArrayType):
            dst = self.func.new_vreg(f"{name}.addr")
            self.emit(ir.LoadAddr(dst, name))
            return dst, ctype.decay()
        addr = self.func.new_vreg()
        self.emit(ir.LoadAddr(addr, name))
        dst = self.func.new_vreg(name)
        if isinstance(ctype, IntType) and ctype.size < 4:
            self.emit(ir.Load(dst, addr, 0, ctype.size, ctype.signed))
        else:
            self.emit(ir.Load(dst, addr, 0, 4, True))
        return dst, promote(ctype)

    def _lower_unary(self, expr: ast.UnaryExpr) -> tuple[ir.VReg, CType]:
        op = expr.op
        if op == "&":
            lvalue = self._lower_lvalue(expr.operand)
            return self._lvalue_address(lvalue, expr.line), PointerType(lvalue.ctype)
        if op == "*":
            value, vtype = self._lower_expr(expr.operand)
            if not isinstance(vtype, PointerType):
                raise CompileError("cannot dereference a non-pointer", expr.line)
            lvalue = _LValue(kind="mem", ctype=vtype.pointee, addr=value)
            return self._load_lvalue(lvalue)
        value, vtype = self._lower_expr(expr.operand)
        dst = self.func.new_vreg()
        if op == "-":
            self.emit(ir.UnOp(dst, "neg", value))
            return dst, promote(vtype)
        if op == "~":
            self.emit(ir.UnOp(dst, "not", value))
            return dst, promote(vtype)
        if op == "!":
            zero = self.func.new_vreg()
            self.emit(ir.Const(zero, 0))
            self.emit(ir.BinOp(dst, "eq", value, zero))
            return dst, INT
        raise CompileError(f"unhandled unary operator {op!r}", expr.line)

    def _lower_binary(self, expr: ast.BinaryExpr) -> tuple[ir.VReg, CType]:
        op = expr.op
        if op == ",":
            self._lower_expr(expr.left)
            return self._lower_expr(expr.right)
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        left, ltype = self._lower_expr(expr.left)
        right, rtype = self._lower_expr(expr.right)
        if op in _CMP_OPS:
            ctype = common_type(ltype, rtype, expr.line)
            unsigned = isinstance(ctype, PointerType) or (
                isinstance(ctype, IntType) and not ctype.signed
            )
            ir_op = _CMP_OPS[op][1 if unsigned else 0]
            dst = self.func.new_vreg()
            self.emit(ir.BinOp(dst, ir_op, left, right))
            return dst, INT
        if op not in _ARITH_OPS:
            raise CompileError(f"unhandled binary operator {op!r}", expr.line)

        # pointer arithmetic
        lp, rp = isinstance(ltype, PointerType), isinstance(rtype, PointerType)
        if lp or rp:
            return self._lower_pointer_arith(op, left, ltype, right, rtype, expr.line)

        ctype = common_type(ltype, rtype, expr.line)
        unsigned = isinstance(ctype, IntType) and not ctype.signed
        if op == ">>":
            # shift signedness follows the *left* operand in C
            lprom = promote(ltype)
            unsigned = isinstance(lprom, IntType) and not lprom.signed
        ir_op = _ARITH_OPS[op][1 if unsigned else 0]
        dst = self.func.new_vreg()
        self.emit(ir.BinOp(dst, ir_op, left, right))
        return dst, ctype

    def _lower_pointer_arith(
        self, op: str, left: ir.VReg, ltype: CType, right: ir.VReg, rtype: CType, line: int
    ) -> tuple[ir.VReg, CType]:
        lp = isinstance(ltype, PointerType)
        rp = isinstance(rtype, PointerType)
        if op == "-" and lp and rp:
            if ltype.pointee.size != rtype.pointee.size:
                raise CompileError("pointer subtraction with mismatched types", line)
            diff = self.func.new_vreg()
            self.emit(ir.BinOp(diff, "sub", left, right))
            size = ltype.pointee.size
            if size == 1:
                return diff, INT
            shift = {2: 1, 4: 2}.get(size)
            if shift is None:
                raise CompileError("pointer subtraction needs power-of-two element", line)
            amount = self.func.new_vreg()
            self.emit(ir.Const(amount, shift))
            dst = self.func.new_vreg()
            self.emit(ir.BinOp(dst, "sar", diff, amount))
            return dst, INT
        if op == "+" and rp:
            left, ltype, right, rtype = right, rtype, left, ltype
            lp, rp = True, False
        if not lp or op not in ("+", "-"):
            raise CompileError(f"invalid pointer arithmetic {op!r}", line)
        scaled = self._scale_index(right, ltype.pointee.size)
        dst = self.func.new_vreg()
        self.emit(ir.BinOp(dst, "add" if op == "+" else "sub", left, scaled))
        return dst, ltype

    def _scale_index(self, index: ir.VReg, size: int) -> ir.VReg:
        if size == 1:
            return index
        scaled = self.func.new_vreg()
        shift = {2: 1, 4: 2}.get(size)
        if shift is not None:
            amount = self.func.new_vreg()
            self.emit(ir.Const(amount, shift))
            self.emit(ir.BinOp(scaled, "shl", index, amount))
        else:
            factor = self.func.new_vreg()
            self.emit(ir.Const(factor, size))
            self.emit(ir.BinOp(scaled, "mul", index, factor))
        return scaled

    def _lower_logical(self, expr: ast.BinaryExpr) -> tuple[ir.VReg, CType]:
        # result slot keeps the lowering simple and correct at -O0;
        # mem2reg turns it into a register at -O1+.
        slot = self.func.new_slot(4, name=f"logical{expr.line}")
        true_label = self.func.new_label("log_true")
        false_label = self.func.new_label("log_false")
        end_label = self.func.new_label("log_end")
        self._lower_condition(expr, true_label, false_label)
        one = self.func.new_vreg()
        self.emit(ir.Label(true_label))
        self.emit(ir.Const(one, 1))
        self.emit(ir.StoreSlot(one, slot))
        self.emit(ir.Jump(end_label))
        zero = self.func.new_vreg()
        self.emit(ir.Label(false_label))
        self.emit(ir.Const(zero, 0))
        self.emit(ir.StoreSlot(zero, slot))
        self.emit(ir.Label(end_label))
        dst = self.func.new_vreg()
        self.emit(ir.LoadSlot(dst, slot))
        return dst, INT

    def _lower_ternary(self, expr: ast.ConditionalExpr) -> tuple[ir.VReg, CType]:
        slot = self.func.new_slot(4, name=f"ternary{expr.line}")
        then_label = self.func.new_label("tern_then")
        else_label = self.func.new_label("tern_else")
        end_label = self.func.new_label("tern_end")
        self._lower_condition(expr.cond, then_label, else_label)
        self.emit(ir.Label(then_label))
        then_val, then_type = self._lower_expr(expr.then_expr)
        self.emit(ir.StoreSlot(then_val, slot))
        self.emit(ir.Jump(end_label))
        self.emit(ir.Label(else_label))
        else_val, else_type = self._lower_expr(expr.else_expr)
        self.emit(ir.StoreSlot(else_val, slot))
        self.emit(ir.Label(end_label))
        dst = self.func.new_vreg()
        self.emit(ir.LoadSlot(dst, slot))
        if isinstance(then_type, PointerType):
            return dst, then_type
        return dst, common_type(then_type, else_type, expr.line)

    def _lower_call(self, expr: ast.CallExpr) -> tuple[ir.VReg, CType]:
        sig = self.signatures.get(expr.name)
        if sig is None:
            raise CompileError(f"call to undeclared function {expr.name!r}", expr.line)
        if len(expr.args) != len(sig.param_types):
            raise CompileError(
                f"{expr.name!r} expects {len(sig.param_types)} arguments, "
                f"got {len(expr.args)}",
                expr.line,
            )
        args: list[ir.VReg] = []
        for arg_expr, ptype in zip(expr.args, sig.param_types):
            value, vtype = self._lower_expr(arg_expr)
            target = ptype.decay() if isinstance(ptype, ArrayType) else ptype
            value = self._wrap_to(value, vtype, target, expr.line)
            args.append(value)
        if sig.return_type.is_void():
            self.emit(ir.Call(None, expr.name, args))
            return self.func.new_vreg(), VOID  # dummy vreg; using it is an error upstream
        dst = self.func.new_vreg()
        self.emit(ir.Call(dst, expr.name, args))
        return dst, promote(sig.return_type)

    def _lower_incdec(self, expr: ast.IncDecExpr) -> tuple[ir.VReg, CType]:
        lvalue = self._lower_lvalue(expr.operand)
        old, vtype = self._load_lvalue(lvalue)
        delta = (
            lvalue.ctype.pointee.size if isinstance(lvalue.ctype, PointerType) else 1
        )
        step = self.func.new_vreg()
        self.emit(ir.Const(step, delta))
        new = self.func.new_vreg()
        self.emit(ir.BinOp(new, "add" if expr.op == "++" else "sub", old, step))
        wrapped = self._coerce_for_store(new, vtype, lvalue.ctype)
        self._store_lvalue(lvalue, wrapped)
        return (wrapped if expr.prefix else old), vtype

    def _lower_assign(self, expr: ast.AssignExpr) -> tuple[ir.VReg, CType]:
        lvalue = self._lower_lvalue(expr.target)
        if expr.op == "=":
            value, vtype = self._lower_expr(expr.value)
            value = self._wrap_to(value, vtype, lvalue.ctype, expr.line)
            self._store_lvalue(lvalue, value)
            return value, promote(lvalue.ctype)
        # compound assignment: load, op, store
        op_text = expr.op[:-1]
        current, cur_type = self._load_lvalue(lvalue)
        rhs, rhs_type = self._lower_expr(expr.value)
        if isinstance(lvalue.ctype, PointerType):
            if op_text not in ("+", "-"):
                raise CompileError("invalid compound op on pointer", expr.line)
            scaled = self._scale_index(rhs, lvalue.ctype.pointee.size)
            result = self.func.new_vreg()
            self.emit(ir.BinOp(result, "add" if op_text == "+" else "sub", current, scaled))
        else:
            ctype = common_type(cur_type, rhs_type, expr.line)
            unsigned = isinstance(ctype, IntType) and not ctype.signed
            if op_text == ">>":
                lv = promote(lvalue.ctype)
                unsigned = isinstance(lv, IntType) and not lv.signed
            ir_op = _ARITH_OPS[op_text][1 if unsigned else 0]
            result = self.func.new_vreg()
            self.emit(ir.BinOp(result, ir_op, current, rhs))
        result = self._coerce_for_store(result, cur_type, lvalue.ctype)
        self._store_lvalue(lvalue, result)
        return result, promote(lvalue.ctype)

    # ------------------------------------------------------------------
    # lvalues
    # ------------------------------------------------------------------

    def _lower_lvalue(self, expr: ast.Expr) -> _LValue:
        if isinstance(expr, ast.NameExpr):
            binding = self._lookup(expr.name, expr.line)
            kind = binding[0]
            if kind == "slot":
                _, slot, ctype = binding
                return _LValue(kind="slot", ctype=ctype, slot=slot)
            if kind == "array_slot":
                raise CompileError(f"cannot assign to array {expr.name!r}", expr.line)
            _, name, ctype = binding
            if isinstance(ctype, ArrayType):
                raise CompileError(f"cannot assign to array {expr.name!r}", expr.line)
            return _LValue(kind="global", ctype=ctype, symbol=name)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            value, vtype = self._lower_expr(expr.operand)
            if not isinstance(vtype, PointerType):
                raise CompileError("cannot dereference a non-pointer", expr.line)
            return _LValue(kind="mem", ctype=vtype.pointee, addr=value)
        if isinstance(expr, ast.IndexExpr):
            base, btype = self._lower_expr(expr.base)
            if not isinstance(btype, PointerType):
                raise CompileError("indexing a non-array value", expr.line)
            index, _ = self._lower_expr(expr.index)
            scaled = self._scale_index(index, btype.pointee.size)
            addr = self.func.new_vreg()
            self.emit(ir.BinOp(addr, "add", base, scaled))
            return _LValue(kind="mem", ctype=btype.pointee, addr=addr)
        raise CompileError("expression is not assignable", expr.line)

    def _lvalue_address(self, lvalue: _LValue, line: int) -> ir.VReg:
        if lvalue.kind == "slot":
            lvalue.slot.address_taken = True
            dst = self.func.new_vreg()
            self.emit(ir.SlotAddr(dst, lvalue.slot))
            return dst
        if lvalue.kind == "global":
            dst = self.func.new_vreg()
            self.emit(ir.LoadAddr(dst, lvalue.symbol))
            return dst
        return lvalue.addr

    def _load_lvalue(self, lvalue: _LValue) -> tuple[ir.VReg, CType]:
        ctype = lvalue.ctype
        if lvalue.kind == "slot":
            dst = self.func.new_vreg(lvalue.slot.name)
            self.emit(ir.LoadSlot(dst, lvalue.slot))
            return dst, promote(ctype)
        if lvalue.kind == "global":
            addr = self.func.new_vreg()
            self.emit(ir.LoadAddr(addr, lvalue.symbol))
            dst = self.func.new_vreg(lvalue.symbol)
            if isinstance(ctype, IntType) and ctype.size < 4:
                self.emit(ir.Load(dst, addr, 0, ctype.size, ctype.signed))
            else:
                self.emit(ir.Load(dst, addr, 0, 4, True))
            return dst, promote(ctype)
        dst = self.func.new_vreg()
        if isinstance(ctype, IntType) and ctype.size < 4:
            self.emit(ir.Load(dst, lvalue.addr, lvalue.offset, ctype.size, ctype.signed))
        else:
            self.emit(ir.Load(dst, lvalue.addr, lvalue.offset, 4, True))
        return dst, promote(ctype)

    def _store_lvalue(self, lvalue: _LValue, value: ir.VReg) -> None:
        ctype = lvalue.ctype
        if lvalue.kind == "slot":
            self.emit(ir.StoreSlot(value, lvalue.slot))
            return
        size = ctype.size if isinstance(ctype, IntType) and ctype.size < 4 else 4
        if lvalue.kind == "global":
            addr = self.func.new_vreg()
            self.emit(ir.LoadAddr(addr, lvalue.symbol))
            self.emit(ir.Store(value, addr, 0, size))
            return
        self.emit(ir.Store(value, lvalue.addr, lvalue.offset, size))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    def _coerce_for_store(self, value: ir.VReg, vtype: CType, target: CType) -> ir.VReg:
        """Wrap *value* so a register-resident copy matches *target* semantics.

        Memory stores of chars/shorts truncate implicitly (sb/sh), so only
        slot-resident (register-like) locals need explicit wrapping; we wrap
        unconditionally for stores into slots and rely on DCE to drop
        redundant wraps after stores that go to memory.
        """
        if isinstance(target, IntType) and target.size < 4:
            return self._emit_wrap(value, target)
        return value

    def _wrap_to(self, value: ir.VReg, vtype: CType, target: CType, line: int) -> ir.VReg:
        if isinstance(target, IntType) and target.size < 4:
            return self._emit_wrap(value, target)
        return value

    def _emit_wrap(self, value: ir.VReg, target: IntType) -> ir.VReg:
        if target.size == 4:
            return value
        dst = self.func.new_vreg()
        if not target.signed:
            mask = self.func.new_vreg()
            self.emit(ir.Const(mask, (1 << target.bits) - 1))
            self.emit(ir.BinOp(dst, "and", value, mask))
            return dst
        shift_amount = 32 - target.bits
        amount = self.func.new_vreg()
        self.emit(ir.Const(amount, shift_amount))
        shifted = self.func.new_vreg()
        self.emit(ir.BinOp(shifted, "shl", value, amount))
        amount2 = self.func.new_vreg()
        self.emit(ir.Const(amount2, shift_amount))
        self.emit(ir.BinOp(dst, "sar", shifted, amount2))
        return dst

    def _cast(
        self, value: ir.VReg, vtype: CType, target: CType, line: int
    ) -> tuple[ir.VReg, CType]:
        if isinstance(target, IntType) and target.size < 4:
            return self._emit_wrap(value, target), promote(target)
        if target.is_void():
            return value, VOID
        return value, target if not isinstance(target, IntType) else target


def generate_ir(unit: ast.TranslationUnit) -> tuple[ir.Module, dict[str, list[tuple[str, list[str]]]]]:
    """Lower *unit* to IR; returns (module, per-function jump tables)."""
    generator = IRGenerator(unit)
    module = generator.generate()
    return module, generator.jump_tables
