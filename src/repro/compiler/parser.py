"""Recursive-descent parser for mini-C.

Produces a :class:`~repro.compiler.ast_nodes.TranslationUnit`.  Types are
resolved syntactically here (base type + pointer/array derivation); semantic
checking happens during IR generation.
"""

from __future__ import annotations

from repro.compiler import ast_nodes as ast
from repro.compiler.ctypes import ArrayType, CType, PointerType, base_type_from_keywords
from repro.compiler.consteval import eval_const_expr
from repro.compiler.lexer import Token, TokenKind, tokenize
from repro.errors import CompileError

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^="}

# binary operator precedence (higher binds tighter)
_BIN_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


#: token kinds that :meth:`Parser.check` matches by text
_OPERATOR_KINDS = (TokenKind.PUNCT, TokenKind.KEYWORD)


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def check(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.text == text and token.kind in _OPERATOR_KINDS

    def accept(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.text == text and token.kind in _OPERATOR_KINDS:
            self.pos += 1  # never the EOF token
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            raise CompileError(
                f"expected {text!r}, found {self.current.text!r}", self.current.line
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind is not TokenKind.IDENT:
            raise CompileError(
                f"expected identifier, found {self.current.text!r}", self.current.line
            )
        return self.advance()

    def _at_type(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind is TokenKind.KEYWORD and token.text in (
            "int", "unsigned", "signed", "short", "char", "void", "long", "const", "static",
        )

    # -- types ---------------------------------------------------------------

    def parse_decl_specifier(self) -> CType:
        line = self.current.line
        words: list[str] = []
        while self.current.kind is TokenKind.KEYWORD and self.current.text in (
            "const", "static",
        ):
            self.advance()  # qualifiers are accepted and ignored
        while self.current.kind is TokenKind.KEYWORD and self.current.text in (
            "int", "unsigned", "signed", "short", "char", "void", "long",
        ):
            words.append(self.advance().text)
            while self.current.kind is TokenKind.KEYWORD and self.current.text == "const":
                self.advance()
        if not words:
            raise CompileError(f"expected type, found {self.current.text!r}", line)
        return base_type_from_keywords(tuple(words), line)

    def parse_pointers(self, base: CType) -> CType:
        ctype = base
        while self.accept("*"):
            while self.current.text == "const":
                self.advance()
            ctype = PointerType(ctype)
        return ctype

    # -- top level -------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.current.kind is not TokenKind.EOF:
            base = self.parse_decl_specifier()
            ctype = self.parse_pointers(base)
            name_token = self.expect_ident()
            if self.check("("):
                unit.functions.append(self.parse_function_rest(ctype, name_token))
            else:
                self.parse_global_rest(ctype, name_token, base, unit)
        return unit

    def parse_function_rest(self, return_type: CType, name_token: Token) -> ast.FunctionDecl:
        self.expect("(")
        params: list[ast.Param] = []
        if self.check(")"):
            pass
        elif self.current.text == "void" and self.peek(1).text == ")":
            self.advance()
        else:
            while True:
                base = self.parse_decl_specifier()
                ptype = self.parse_pointers(base)
                pname = self.expect_ident()
                if self.accept("["):  # array parameter decays to pointer
                    if not self.check("]"):
                        eval_const_expr(self.parse_assignment())  # size parsed, ignored
                    self.expect("]")
                    ptype = PointerType(ptype)
                params.append(ast.Param(pname.text, ptype, pname.line))
                if not self.accept(","):
                    break
        self.expect(")")
        if self.accept(";"):
            body = None
        else:
            body = self.parse_block()
        return ast.FunctionDecl(
            name=name_token.text,
            return_type=return_type,
            params=params,
            body=body,
            line=name_token.line,
        )

    def parse_global_rest(
        self,
        first_type: CType,
        first_name: Token,
        base: CType,
        unit: ast.TranslationUnit,
    ) -> None:
        ctype, name_token = first_type, first_name
        while True:
            ctype = self.parse_array_suffix(ctype)
            init: ast.Expr | None = None
            init_list: list[ast.Expr] | None = None
            if self.accept("="):
                if self.check("{"):
                    init_list = self.parse_init_list()
                else:
                    init = self.parse_assignment()
            unit.globals.append(
                ast.GlobalDecl(
                    name=name_token.text,
                    ctype=ctype,
                    init=init,
                    init_list=init_list,
                    line=name_token.line,
                )
            )
            if not self.accept(","):
                break
            ctype = self.parse_pointers(base)
            name_token = self.expect_ident()
        self.expect(";")

    def parse_array_suffix(self, ctype: CType) -> CType:
        if self.accept("["):
            if self.check("]"):
                length = -1  # inferred from the initializer
            else:
                length = eval_const_expr(self.parse_conditional())
            self.expect("]")
            if self.check("["):
                raise CompileError(
                    "multi-dimensional arrays are not supported; flatten manually",
                    self.current.line,
                )
            return ArrayType(ctype, length)
        return ctype

    def parse_init_list(self) -> list[ast.Expr]:
        self.expect("{")
        items: list[ast.Expr] = []
        if not self.check("}"):
            while True:
                items.append(self.parse_assignment())
                if not self.accept(","):
                    break
                if self.check("}"):  # trailing comma
                    break
        self.expect("}")
        return items

    # -- statements --------------------------------------------------------

    def parse_block(self) -> ast.BlockStmt:
        start = self.expect("{")
        body: list[ast.Stmt] = []
        while not self.check("}"):
            if self.current.kind is TokenKind.EOF:
                raise CompileError("unterminated block", start.line)
            body.append(self.parse_statement())
        self.expect("}")
        return ast.BlockStmt(line=start.line, body=body)

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if self.check("{"):
            return self.parse_block()
        if self._at_type():
            return self.parse_decl_statement()
        if token.kind is TokenKind.KEYWORD:
            if token.text == "if":
                return self.parse_if()
            if token.text == "while":
                return self.parse_while()
            if token.text == "do":
                return self.parse_do_while()
            if token.text == "for":
                return self.parse_for()
            if token.text == "switch":
                return self.parse_switch()
            if token.text == "break":
                self.advance()
                self.expect(";")
                return ast.BreakStmt(line=token.line)
            if token.text == "continue":
                self.advance()
                self.expect(";")
                return ast.ContinueStmt(line=token.line)
            if token.text == "return":
                self.advance()
                value = None if self.check(";") else self.parse_expression()
                self.expect(";")
                return ast.ReturnStmt(line=token.line, value=value)
        if self.accept(";"):
            return ast.BlockStmt(line=token.line, body=[])
        expr = self.parse_expression()
        self.expect(";")
        return ast.ExprStmt(line=token.line, expr=expr)

    def parse_decl_statement(self) -> ast.Stmt:
        line = self.current.line
        base = self.parse_decl_specifier()
        decls: list[ast.Stmt] = []
        while True:
            ctype = self.parse_pointers(base)
            name_token = self.expect_ident()
            ctype = self.parse_array_suffix(ctype)
            init: ast.Expr | None = None
            init_list: list[ast.Expr] | None = None
            if self.accept("="):
                if self.check("{"):
                    init_list = self.parse_init_list()
                else:
                    init = self.parse_assignment()
            decls.append(
                ast.DeclStmt(
                    line=name_token.line,
                    name=name_token.text,
                    ctype=ctype,
                    init=init,
                    init_list=init_list,
                )
            )
            if not self.accept(","):
                break
        self.expect(";")
        if len(decls) == 1:
            return decls[0]
        return ast.BlockStmt(line=line, body=decls)

    def parse_if(self) -> ast.IfStmt:
        token = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then_body = self.parse_statement()
        else_body = self.parse_statement() if self.accept("else") else None
        return ast.IfStmt(line=token.line, cond=cond, then_body=then_body, else_body=else_body)

    def parse_while(self) -> ast.WhileStmt:
        token = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ast.WhileStmt(line=token.line, cond=cond, body=body)

    def parse_do_while(self) -> ast.DoWhileStmt:
        token = self.expect("do")
        body = self.parse_statement()
        self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        self.expect(";")
        return ast.DoWhileStmt(line=token.line, body=body, cond=cond)

    def parse_for(self) -> ast.ForStmt:
        token = self.expect("for")
        self.expect("(")
        init: ast.Stmt | None = None
        if not self.check(";"):
            if self._at_type():
                init = self.parse_decl_statement()
            else:
                init = ast.ExprStmt(line=self.current.line, expr=self.parse_expression())
                self.expect(";")
        else:
            self.expect(";")
        cond = None if self.check(";") else self.parse_expression()
        self.expect(";")
        step = None if self.check(")") else self.parse_expression()
        self.expect(")")
        body = self.parse_statement()
        return ast.ForStmt(line=token.line, init=init, cond=cond, step=step, body=body)

    def parse_switch(self) -> ast.SwitchStmt:
        token = self.expect("switch")
        self.expect("(")
        scrutinee = self.parse_expression()
        self.expect(")")
        self.expect("{")
        cases: list[ast.SwitchCase] = []
        current: ast.SwitchCase | None = None
        seen_default = False
        while not self.check("}"):
            if self.accept("case"):
                line = self.tokens[self.pos - 1].line
                value = eval_const_expr(self.parse_conditional())
                self.expect(":")
                current = ast.SwitchCase(value=value, line=line)
                cases.append(current)
            elif self.accept("default"):
                line = self.tokens[self.pos - 1].line
                if seen_default:
                    raise CompileError("duplicate default label", line)
                seen_default = True
                self.expect(":")
                current = ast.SwitchCase(value=None, line=line)
                cases.append(current)
            else:
                if current is None:
                    raise CompileError(
                        "statement before first case label", self.current.line
                    )
                current.body.append(self.parse_statement())
        self.expect("}")
        values = [case.value for case in cases if case.value is not None]
        if len(values) != len(set(values)):
            raise CompileError("duplicate case value", token.line)
        return ast.SwitchStmt(line=token.line, scrutinee=scrutinee, cases=cases)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        expr = self.parse_assignment()
        while self.accept(","):
            right = self.parse_assignment()
            # comma operator: evaluate both, value is the right one; modeled
            # as a binary op handled specially in irgen
            expr = ast.BinaryExpr(line=expr.line, op=",", left=expr, right=right)
        return expr

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_conditional()
        if self.current.kind is TokenKind.PUNCT and self.current.text in _ASSIGN_OPS:
            op = self.advance().text
            value = self.parse_assignment()
            return ast.AssignExpr(line=left.line, op=op, target=left, value=value)
        return left

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then_expr = self.parse_expression()
            self.expect(":")
            else_expr = self.parse_conditional()
            return ast.ConditionalExpr(
                line=cond.line, cond=cond, then_expr=then_expr, else_expr=else_expr
            )
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        left = self.parse_unary()
        while True:
            token = self.current
            prec = _BIN_PREC.get(token.text) if token.kind is TokenKind.PUNCT else None
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = ast.BinaryExpr(line=token.line, op=token.text, left=left, right=right)

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.PUNCT:
            if token.text in ("-", "!", "~", "*", "&"):
                self.advance()
                operand = self.parse_unary()
                return ast.UnaryExpr(line=token.line, op=token.text, operand=operand)
            if token.text == "+":
                self.advance()
                return self.parse_unary()
            if token.text in ("++", "--"):
                self.advance()
                operand = self.parse_unary()
                return ast.IncDecExpr(line=token.line, op=token.text, operand=operand, prefix=True)
            if token.text == "(" and self._at_type(1):
                self.advance()
                base = self.parse_decl_specifier()
                ctype = self.parse_pointers(base)
                self.expect(")")
                operand = self.parse_unary()
                return ast.CastExpr(line=token.line, ctype=ctype, operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.current
            if self.accept("["):
                index = self.parse_expression()
                self.expect("]")
                expr = ast.IndexExpr(line=token.line, base=expr, index=index)
            elif token.text in ("++", "--") and token.kind is TokenKind.PUNCT:
                self.advance()
                expr = ast.IncDecExpr(line=token.line, op=token.text, operand=expr, prefix=False)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind is TokenKind.NUMBER or token.kind is TokenKind.CHAR:
            self.advance()
            return ast.NumberExpr(line=token.line, value=token.value)
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.check("("):
                self.advance()
                args: list[ast.Expr] = []
                if not self.check(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept(","):
                            break
                self.expect(")")
                return ast.CallExpr(line=token.line, name=token.text, args=args)
            return ast.NameExpr(line=token.line, name=token.text)
        if self.accept("("):
            expr = self.parse_expression()
            self.expect(")")
            return expr
        raise CompileError(f"unexpected token {token.text!r}", token.line)


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C *source* into a translation unit."""
    return Parser(source).parse_translation_unit()
