"""Tests for the DDMCPP preprocessor: directives, lexer, parser, codegen,
and end-to-end program builds."""

import numpy as np
import pytest

from repro.preprocessor import DDMSyntaxError, compile_to_program, emit_module
from repro.preprocessor.directives import split_directives
from repro.preprocessor.lexer import Token, tokenize
from repro.preprocessor.parser import (
    MAX_BODY_DEPTH,
    MAX_EXPR_DEPTH,
    MAX_LOOP_DEPTH,
    parse_block,
    parse_expression,
)
from repro.preprocessor import ast_nodes as A


# -- lexer ---------------------------------------------------------------
def kinds(src):
    return [(t.kind, t.value) for t in tokenize(src) if t.kind != "eof"]


def test_lexer_numbers():
    assert kinds("1 2.5 1e3 3.0e-2 .5 010 00 010.5 08e1") == [
        ("num", "1"), ("num", "2.5"), ("num", "1e3"), ("num", "3.0e-2"), ("num", ".5"),
        ("num", "8"), ("num", "0"), ("num", "010.5"), ("num", "08e1"),
    ]


def test_lexer_idents_keywords():
    assert kinds("int foo for x_1") == [
        ("kw", "int"), ("ident", "foo"), ("kw", "for"), ("ident", "x_1"),
    ]


def test_lexer_operators_longest_match():
    assert kinds("a<<=b <= < ++ +") == [
        ("ident", "a"), ("op", "<<="), ("ident", "b"),
        ("op", "<="), ("op", "<"), ("op", "++"), ("op", "+"),
    ]


def test_lexer_comments_stripped():
    assert kinds("a /* x \n y */ b // end\nc") == [
        ("ident", "a"), ("ident", "b"), ("ident", "c"),
    ]


def test_lexer_string_and_char():
    toks = kinds('"hi\\n" \'A\'')
    assert toks == [("str", '"hi\\n"'), ("num", "65")]


def test_lexer_line_numbers():
    toks = tokenize("a\nb\n  c")
    assert [t.line for t in toks[:3]] == [1, 2, 3]


@pytest.mark.parametrize("literal", ['"a\\\nb"', "'a\\\n'"], ids=["str", "char"])
def test_lexer_counts_a_backslash_newline_inside_a_literal(literal):
    """A literal continued over a backslash-newline still ends a line:
    the tokens and errors after it carry the line they are on."""
    toks = tokenize(f"{literal} x\ny", first_line=5)
    assert [(t.value, t.line) for t in toks[1:]] == [("x", 6), ("y", 7), ("", 7)]
    with pytest.raises(DDMSyntaxError) as exc:
        tokenize(f"{literal} x\n@", first_line=5)
    assert str(exc.value) == "line 7: unexpected character '@'"


def test_lexer_unterminated_comment():
    with pytest.raises(DDMSyntaxError):
        tokenize("/* nope")


def test_lexer_bad_char():
    with pytest.raises(DDMSyntaxError):
        tokenize("a @ b")


# -- parser ----------------------------------------------------------------
def test_parse_expression_precedence():
    e = parse_expression("1 + 2 * 3")
    assert isinstance(e, A.BinOp) and e.op == "+"
    assert isinstance(e.right, A.BinOp) and e.right.op == "*"


def test_parse_expression_ternary():
    e = parse_expression("a > b ? a : b")
    assert isinstance(e, A.Ternary)


def test_parse_expression_trailing_rejected():
    with pytest.raises(DDMSyntaxError):
        parse_expression("1 + 2 ;")


def test_parse_multidim_index():
    e = parse_expression("m[i][j]")
    assert isinstance(e, A.Index)
    assert len(e.indices) == 2


def test_parse_statements_forms():
    stmts = parse_block(
        """
        int i, j = 2;
        double x = 1.5;
        i = j + 1;
        i += 3;
        i++;
        if (i > 2) { x = 0; } else x = 1;
        while (i > 0) { i--; }
        for (i = 0; i < 10; i++) { j = j + i; }
        """
    )
    assert len(stmts) == 8


def test_parse_missing_semicolon():
    with pytest.raises(DDMSyntaxError):
        parse_block("i = 1")


def test_parse_unterminated_block():
    with pytest.raises(DDMSyntaxError):
        parse_block("{ i = 1;")


# -- directives ----------------------------------------------------------------
GOOD = """
#pragma ddm startprogram name(demo)
#pragma ddm var double a[4]
#pragma ddm var int n

#pragma ddm thread 1 context(4)
  a[CTX] = CTX;
#pragma ddm endthread

#pragma ddm thread 2 depends(1 all)
  n = 4;
#pragma ddm endthread
#pragma ddm endprogram
"""


def test_split_directives_basic():
    prog = split_directives(GOOD)
    assert prog.name == "demo"
    assert [v.name for v in prog.variables] == ["a", "n"]
    assert prog.variables[0].dims == (4,)
    assert [t.tid for t in prog.threads] == [1, 2]
    assert prog.threads[0].context == 4
    assert prog.threads[1].depends[0].mapping == "all"


def test_split_directives_map_dependence():
    src = GOOD.replace("depends(1 all)", "depends(1 map(CTX / 2))")
    prog = split_directives(src)
    dep = prog.threads[1].depends[0]
    assert dep.mapping == "map" and dep.map_expr == "CTX / 2"


def test_depends_inside_longer_identifier_is_not_a_dependence():
    """depends( is scanned like reads(/writes(: only as a whole word."""
    prog = split_directives(GOOD.replace("depends(1 all)", "xdepends(1 same)"))
    assert prog.threads[1].depends == []


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda s: s.replace("#pragma ddm startprogram name(demo)\n", ""), "startprogram"),
        (lambda s: s.replace("#pragma ddm endprogram", ""), "endprogram"),
        (lambda s: s.replace("#pragma ddm endthread", "", 1), "never closed|nested"),
        (lambda s: s.replace("thread 2", "thread 1"), "duplicate"),
        (lambda s: s.replace("depends(1 all)", "depends(9 all)"), "unknown thread"),
        (lambda s: s.replace("var double a[4]", "var complex a[4]"), "malformed"),
    ],
)
def test_split_directives_rejects(mutation, message):
    import re

    with pytest.raises(DDMSyntaxError) as err:
        split_directives(mutation(GOOD))
    assert re.search(message, str(err.value))


def test_code_outside_thread_rejected():
    src = GOOD.replace("#pragma ddm var int n", "int n;")
    with pytest.raises(DDMSyntaxError, match="outside"):
        split_directives(src)


# -- end-to-end ------------------------------------------------------------------
def test_compile_and_run_squares():
    src = """
#pragma ddm startprogram name(squares)
#pragma ddm var double parts[8]
#pragma ddm var double total
#pragma ddm thread 1 context(8)
  parts[CTX] = CTX * CTX;
#pragma ddm endthread
#pragma ddm thread 2 depends(1 all)
  int i;
  total = 0;
  for (i = 0; i < 8; i++) total = total + parts[i];
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.get("total") == 140.0


def test_emitted_module_is_valid_python():
    code = emit_module(GOOD)
    compile(code, "<generated>", "exec")
    assert "def build_program():" in code
    assert "_thread_1" in code


def test_pipeline_same_mapping():
    src = """
#pragma ddm startprogram name(pipe)
#pragma ddm var int a[6]
#pragma ddm var int b[6]
#pragma ddm thread 1 context(6)
  a[CTX] = CTX + 1;
#pragma ddm endthread
#pragma ddm thread 2 context(6) depends(1 same)
  b[CTX] = a[CTX] * 10;
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    np.testing.assert_array_equal(env.array("b"), (np.arange(6) + 1) * 10)


def test_map_dependence_tree():
    src = """
#pragma ddm startprogram name(tree)
#pragma ddm var double leaf[8]
#pragma ddm var double mid[4]
#pragma ddm thread 1 context(8)
  leaf[CTX] = 1;
#pragma ddm endthread
#pragma ddm thread 2 context(4) depends(1 map(CTX / 2))
  mid[CTX] = leaf[2 * CTX] + leaf[2 * CTX + 1];
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    np.testing.assert_array_equal(env.array("mid"), [2.0, 2.0, 2.0, 2.0])


def test_prologue_epilogue_sections():
    src = """
#pragma ddm startprogram name(pe)
#pragma ddm var int x
#pragma ddm prologue
  x = 10;
#pragma ddm endprologue
#pragma ddm thread 1
  x = x + 5;
#pragma ddm endthread
#pragma ddm epilogue
  x = x * 2;
#pragma ddm endepilogue
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.get("x") == 30


def test_c_division_semantics():
    src = """
#pragma ddm startprogram name(div)
#pragma ddm var int q
#pragma ddm var int r
#pragma ddm var double f
#pragma ddm thread 1
  q = (0 - 7) / 2;
  r = (0 - 7) % 2;
  f = 7.0 / 2;
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.get("q") == -3  # C truncates toward zero
    assert env.get("r") == -1  # remainder follows dividend
    assert env.get("f") == 3.5


def test_intrinsics():
    src = """
#pragma ddm startprogram name(m)
#pragma ddm var double y
#pragma ddm thread 1
  y = sqrt(16.0) + fabs(0 - 2) + pow(2, 3) + fmax(1, 5);
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.get("y") == 4 + 2 + 8 + 5


def test_unknown_call_rejected():
    src = """
#pragma ddm startprogram name(m)
#pragma ddm var double y
#pragma ddm thread 1
  y = launch_missiles();
#pragma ddm endthread
#pragma ddm endprogram
"""
    with pytest.raises(DDMSyntaxError, match="intrinsic"):
        compile_to_program(src)


def test_continue_in_noncanonical_for_rejected():
    src = """
#pragma ddm startprogram name(m)
#pragma ddm var int x
#pragma ddm thread 1
  int i;
  for (i = 0; i < 10; i = i * 2 + 1) {
    if (i == 3) continue;
    x = x + i;
  }
#pragma ddm endthread
#pragma ddm endprogram
"""
    with pytest.raises(DDMSyntaxError, match="non-canonical"):
        compile_to_program(src)


def test_continue_in_canonical_for_works():
    src = """
#pragma ddm startprogram name(m)
#pragma ddm var int x
#pragma ddm thread 1
  int i;
  x = 0;
  for (i = 0; i < 5; i++) {
    if (i == 2) continue;
    x = x + i;
  }
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.get("x") == 0 + 1 + 3 + 4


def test_local_shadowing_shared_rejected():
    src = """
#pragma ddm startprogram name(m)
#pragma ddm var int x
#pragma ddm thread 1
  int x;
  x = 1;
#pragma ddm endthread
#pragma ddm endprogram
"""
    with pytest.raises(DDMSyntaxError, match="shadows"):
        compile_to_program(src)


def test_preprocessed_program_runs_on_platform():
    from repro.platforms import TFluxHard

    prog = compile_to_program(
        """
#pragma ddm startprogram name(plat)
#pragma ddm var double parts[12]
#pragma ddm var double total
#pragma ddm thread 1 context(12)
  parts[CTX] = CTX + 1;
#pragma ddm endthread
#pragma ddm thread 2 depends(1 all)
  int i;
  total = 0;
  for (i = 0; i < 12; i++) total = total + parts[i];
#pragma ddm endthread
#pragma ddm endprogram
"""
    )
    res = TFluxHard().execute(prog, nkernels=4)
    assert res.env.get("total") == 78.0


def test_2d_array_support():
    src = """
#pragma ddm startprogram name(mat)
#pragma ddm var double m[3][4]
#pragma ddm var double trace
#pragma ddm thread 1 context(3)
  int j;
  for (j = 0; j < 4; j++) m[CTX][j] = CTX * 10 + j;
#pragma ddm endthread
#pragma ddm thread 2 depends(1 all)
  trace = m[0][0] + m[1][1] + m[2][2];
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.array("m").shape == (3, 4)
    assert env.get("trace") == 0 + 11 + 22


def test_char_literal_with_escaped_quote():
    from repro.preprocessor.lexer import tokenize

    toks = [t for t in tokenize("c = '\\'';") if t.kind == "num"]
    assert toks[0].value == str(ord("'"))


def test_int_declaration_truncates_float_initializer():
    src = """
#pragma ddm startprogram name(trunc)
#pragma ddm var int r
#pragma ddm thread 1
  int half = 5 * 0.5;
  r = half;
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(src).run_sequential()
    assert env.get("r") == 2  # C truncates 2.5 toward zero


def test_printf_percent_escape(capsys):
    src = """
#pragma ddm startprogram name(pct)
#pragma ddm var int x
#pragma ddm thread 1
  printf("100%% done");
  x = 1;
#pragma ddm endthread
#pragma ddm endprogram
"""
    compile_to_program(src).run_sequential()
    assert capsys.readouterr().out == "100% done"


# -- nesting and malformed input: always a DDMSyntaxError at its line -------------

BODY_LINE = 4  # the line of a one-thread program's body


def _one_thread(body: str) -> str:
    return f"""#pragma ddm startprogram name(nest)
#pragma ddm var int r
#pragma ddm thread 1
{body}
#pragma ddm endthread
#pragma ddm endprogram
"""


def _chain(height: int) -> str:
    """``1 + 1 + ...``: a left-leaning tree *height* levels deep."""
    return " + ".join(["1"] * height)


#: construct -> (body nesting it n deep, the value it leaves in r)
NESTED = {
    "parentheses": (lambda n: "r = " + "(" * n + "1" + ")" * n + ";", lambda n: 1),
    "blocks": (lambda n: "{" * n + "r = 1;" + "}" * n, lambda n: 1),
    "unary minus": (lambda n: "r = " + "- " * n + "1;", lambda n: (-1) ** n),
    "parenthesised sums": (
        lambda n: "r = " + "(1 + " * n + "1" + ")" * n + ";", lambda n: n + 1,
    ),
    "ifs": (lambda n: "if (1) " * n + "r = 1;", lambda n: 1),
}


@pytest.mark.parametrize("construct", sorted(NESTED))
def test_c99_minimum_nesting_compiles_and_runs(construct):
    """C99 §5.2.4.1: 63 levels of parenthesised expressions."""
    body, value = NESTED[construct]
    env = compile_to_program(_one_thread(body(63))).run_sequential()
    assert env.get("r") == value(63)


@pytest.mark.parametrize("construct", sorted(NESTED))
def test_deep_nesting_is_a_syntax_error_at_its_line(construct):
    body, _ = NESTED[construct]
    with pytest.raises(DDMSyntaxError) as info:
        compile_to_program(_one_thread(body(10_000)))
    assert info.value.line == BODY_LINE


def test_parse_expression_nesting():
    assert parse_expression("(" * 120 + "CTX" + ")" * 120) == A.Name("CTX")
    with pytest.raises(DDMSyntaxError, match="line 1: nesting too deep"):
        parse_expression("(" * 10_000 + "CTX" + ")" * 10_000)


#: where the back-end wraps an expression in brackets of its own ->
#: (statement, levels the statement's expression adds above {e})
EXPR_CONTEXTS = {
    "assignment": ("r = {e};", 0),
    "divide-assign": ("r = 1; r /= {e};", 0),
    "declaration": ("int x = {e}; r = x;", 0),
    "loop bound": ("int i; for (i = 0; i <= {e}; i++) r = i;", 1),
}


@pytest.mark.parametrize("where", sorted(EXPR_CONTEXTS))
def test_expression_depth_limit_is_exact(where):
    """The deepest accepted tree compiles and runs; one level more is
    refused at its line, never left to Python's bracket limit."""
    body, above = EXPR_CONTEXTS[where]
    deepest = _chain(MAX_EXPR_DEPTH - above)
    compile_to_program(_one_thread(body.format(e=deepest))).run_sequential()
    with pytest.raises(DDMSyntaxError, match=f"line {BODY_LINE}: expression nested"):
        compile_to_program(_one_thread(body.format(e=deepest + " + 1")))


def test_expression_depth_limit_in_map_and_access_clauses():
    def program(height):
        zeros = " + ".join(["0"] * height)
        return f"""#pragma ddm startprogram name(clauses)
#pragma ddm var int a[2]
#pragma ddm thread 1 context(2) writes(a[{zeros}])
  a[0] = 1;
#pragma ddm endthread
#pragma ddm thread 2 context(2) depends(1 map({zeros}))
  a[1] = a[0];
#pragma ddm endthread
#pragma ddm endprogram
"""
    env = compile_to_program(program(MAX_EXPR_DEPTH)).run_sequential()
    assert list(env.array("a")) == [1, 1]
    with pytest.raises(DDMSyntaxError, match="expression nested"):
        compile_to_program(program(MAX_EXPR_DEPTH + 1))


def test_body_depth_limit_is_exact():
    """The deepest accepted nest of bodies compiles and runs, in a plain
    thread and inside a loop-thread's loop; one more is refused."""
    ifs = "if (1) " * MAX_BODY_DEPTH
    assert compile_to_program(_one_thread(ifs + "r = 1;")).run_sequential().get("r") == 1
    with pytest.raises(DDMSyntaxError, match=f"line {BODY_LINE}: statements nested"):
        compile_to_program(_one_thread("if (1) " + ifs + "r = 1;"))
    loop = f"""#pragma ddm startprogram name(nestloop)
#pragma ddm var int a[4]
#pragma ddm for thread 1 unroll(2)
  int i;
  for (i = 0; i < 4; i++) {"if (1) " * (MAX_BODY_DEPTH - 1)} a[i] = i;
#pragma ddm endfor
#pragma ddm endprogram
"""
    assert list(compile_to_program(loop).run_sequential().array("a")) == [0, 1, 2, 3]


@pytest.mark.parametrize("loop", ["while (r < 1) ", "for (;r < 1;) ", "for (int i = 0; i < 1; i++) "])
def test_loop_depth_limit_is_exact(loop):
    """Python nests at most 20 loops in a function; the parser says so
    first, at the line, for canonical and while-transformed loops alike."""
    src = _one_thread(loop * MAX_LOOP_DEPTH + "r = 1;")
    assert compile_to_program(src).run_sequential().get("r") == 1
    for depth in (MAX_LOOP_DEPTH + 1, 10_000):
        with pytest.raises(DDMSyntaxError, match=f"line {BODY_LINE}: statements nested"):
            compile_to_program(_one_thread(loop * depth + "r = 1;"))


@pytest.mark.parametrize(
    "body, message",
    [
        ("r = 2 * 1e+;", "exponent without digits in '1e+'"),
        ("r = .5e-;", "exponent without digits in '.5e-'"),
        ("r = 1.E-x;", "exponent without digits in '1.E-'"),
        ("r = 2²;", "unexpected character '²'"),
        ("r = ١;", "unexpected character '١'"),
        ("ré = 1;", "unexpected character 'é'"),
        ("r = '\\x';", "bad char literal '\\\\x'"),
        ('printf("a\nb");', "bad string literal"),
        ('printf("\\x4");', "bad string literal"),
        ("r = 08;", "bad octal literal '08'"),
        ("r = 1 + 019;", "bad octal literal '019'"),
    ],
)
def test_malformed_literal_is_a_syntax_error_at_its_line(body, message):
    """A literal Python cannot read never reaches ``compile``."""
    with pytest.raises(DDMSyntaxError) as info:
        compile_to_program(_one_thread(body))
    assert str(info.value).startswith(f"line {BODY_LINE}: {message}")
