"""Unit tests for the code-generation IR and its Python printer."""


from repro.ir import (
    Assign,
    Comment,
    ExprStmt,
    FunctionDef,
    If,
    Module,
    Pass,
    Return,
    to_source,
)


def compile_module(module):
    namespace = {}
    exec(compile(to_source(module), "<test>", "exec"), namespace)  # noqa: S102
    return namespace


class TestPrinter:
    def test_simple_function(self):
        module = Module(functions=[FunctionDef("f", ["x"], [Return("x + 1")])])
        namespace = compile_module(module)
        assert namespace["f"](4) == 5

    def test_module_docstring_emitted(self):
        module = Module(docstring="generated for tests")
        assert to_source(module).startswith('"""generated for tests"""')

    def test_globals_emitted_before_functions(self):
        module = Module(
            globals=[Assign("WIDTH", "3")],
            functions=[FunctionDef("get", [], [Return("WIDTH")])],
        )
        namespace = compile_module(module)
        assert namespace["WIDTH"] == 3
        assert namespace["get"]() == 3

    def test_function_docstring(self):
        module = Module(functions=[FunctionDef("f", [], [Return("0")], docstring="doc here")])
        namespace = compile_module(module)
        assert namespace["f"].__doc__ == "doc here"

    def test_if_elif_else(self):
        body = [
            If(
                branches=[("x == 0", [Return("'zero'")]), ("x == 1", [Return("'one'")])],
                orelse=[Return("'many'")],
            )
        ]
        namespace = compile_module(Module(functions=[FunctionDef("classify", ["x"], body)]))
        assert namespace["classify"](0) == "zero"
        assert namespace["classify"](1) == "one"
        assert namespace["classify"](9) == "many"

    def test_if_without_else(self):
        body = [
            Assign("result", "0"),
            If(branches=[("x > 0", [Assign("result", "1")])]),
            Return("result"),
        ]
        namespace = compile_module(Module(functions=[FunctionDef("f", ["x"], body)]))
        assert namespace["f"](5) == 1
        assert namespace["f"](-1) == 0

    def test_empty_branch_body_gets_pass(self):
        body = [If(branches=[("x > 0", [])], orelse=[Return("1")]), Return("0")]
        namespace = compile_module(Module(functions=[FunctionDef("f", ["x"], body)]))
        assert namespace["f"](3) == 0
        assert namespace["f"](-3) == 1

    def test_nested_if_indentation(self):
        inner = If(branches=[("y > 0", [Return("2")])], orelse=[Return("1")])
        body = [If(branches=[("x > 0", [inner])], orelse=[Return("0")])]
        namespace = compile_module(Module(functions=[FunctionDef("f", ["x", "y"], body)]))
        assert namespace["f"](1, 1) == 2
        assert namespace["f"](1, -1) == 1
        assert namespace["f"](-1, 1) == 0

    def test_comment_emitted_as_hash(self):
        module = Module(functions=[FunctionDef("f", [], [Comment("explains things"), Return("0")])])
        assert "# explains things" in to_source(module)

    def test_multiline_comment(self):
        module = Module(functions=[FunctionDef("f", [], [Comment("line one\nline two"), Pass()])])
        source = to_source(module)
        assert "# line one" in source and "# line two" in source

    def test_expr_statement(self):
        module = Module(
            globals=[Assign("calls", "[]")],
            functions=[FunctionDef("f", [], [ExprStmt("calls.append(1)"), Return("calls")])],
        )
        namespace = compile_module(module)
        assert namespace["f"]() == [1]

    def test_empty_function_gets_pass(self):
        namespace = compile_module(Module(functions=[FunctionDef("f", [], [])]))
        assert namespace["f"]() is None

    def test_trailer_emitted_last(self):
        module = Module(
            functions=[FunctionDef("f", [], [Return("1")])],
            trailer=[Assign("TABLE", "[f]")],
        )
        namespace = compile_module(module)
        assert namespace["TABLE"][0]() == 1

