"""Property: the ALU DSL and Domino front ends agree on their shared expressions.

Both languages tokenise with one scanner, parse with one parser core
(:class:`repro.alu_dsl.parser.TokenParser`) and evaluate through one operator
table (:mod:`repro.alu_dsl.semantics`).  Hypothesis draws expressions over the
grammar they share -- literals including 0, two names, every binary operator
and unary ``-``/``!`` -- and prints each with
:func:`repro.alu_dsl.printer.format_expr`.  Parsed as an ALU DSL ``return``
and as a Domino assignment, the text must give the drawn tree (with ``Var``
read as ``DStateRef`` in Domino), and the two reference interpreters must
compute the same value.
"""

import os

from hypothesis import given, settings, strategies as st

from repro.alu_dsl import ALUInterpreter, format_expr, parse_and_analyze
from repro.alu_dsl.ast_nodes import BinaryOp, Number, UnaryOp, Var
from repro.alu_dsl.semantics import BINARY_OPS, UNARY_OPS
from repro.domino import DominoInterpreter
from repro.domino import parse_and_analyze as parse_domino
from repro.domino.ast_nodes import DStateRef

#: Example budget (tier-1 default); the nightly CI job raises it twentyfold.
EXAMPLES = int(os.environ.get("DRUZHBA_PROPERTY_EXAMPLES", "200"))

NAMES = ("a", "b")

expressions = st.recursive(
    st.one_of(st.integers(min_value=0, max_value=12).map(Number), st.sampled_from(NAMES).map(Var)),
    lambda children: st.one_of(
        st.builds(UnaryOp, st.sampled_from(sorted(UNARY_OPS)), children),
        st.builds(BinaryOp, st.sampled_from(sorted(BINARY_OPS)), children, children),
    ),
    max_leaves=12,
)
values = st.integers(min_value=-4, max_value=9)


def as_domino(expr):
    """The Domino reading of an ALU DSL expression: names are state reads."""
    if isinstance(expr, Var):
        return DStateRef(expr.name)
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, as_domino(expr.operand))
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, as_domino(expr.left), as_domino(expr.right))
    return expr


@settings(max_examples=EXAMPLES, deadline=None)
@given(expr=expressions, a=values, b=values)
def test_alu_dsl_and_domino_agree(expr, a, b):
    text = format_expr(expr)
    spec = parse_and_analyze(
        "type: stateless\nstate variables : {}\nhole variables : {}\n"
        f"packet fields : {{a, b}}\nreturn {text};\n"
    )
    program = parse_domino(f"state a = 0; state b = 0;\ntransaction t {{ pkt.out = {text}; }}")

    alu_tree = spec.body[0].value
    assert alu_tree == expr
    assert program.body[0].value == as_domino(alu_tree)

    alu_value = ALUInterpreter(spec).execute(operands=[a, b], state=[], holes={}).output
    domino_value = DominoInterpreter(program).execute({}, {"a": a, "b": b})["out"]
    assert alu_value == domino_value
