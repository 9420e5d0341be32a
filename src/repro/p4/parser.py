"""Parser for the P4-14-like textual format.

The accepted syntax is a compact subset of P4-14 sufficient for dRMT dgen:

.. code-block:: none

    header_type ipv4_t { fields { srcAddr : 32; dstAddr : 32; ttl : 8; } }
    header ipv4_t ipv4;
    metadata meta_t meta;
    register flow_count { width : 32; instance_count : 1024; }
    action set_nhop(port) { modify_field(meta.egress_port, port); }
    action drop_pkt() { drop(); }
    table forward {
        reads { ipv4.dstAddr : exact; }
        actions { set_nhop; drop_pkt; }
        size : 1024;
    }
    control ingress {
        apply(forward);
        if (ipv4.ttl == 0) { apply(acl); }
    }

``//`` and ``#`` comments run to end of line.  Numbers are decimal or
``0x``-prefixed hexadecimal (:func:`repro.p4.program.integer_literal`); a
decimal with a leading zero such as ``010`` is a syntax error.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import P4SyntaxError
from .program import (
    Action,
    ControlApply,
    HeaderInstance,
    HeaderType,
    P4Program,
    PrimitiveCall,
    Register,
    Table,
    TableRead,
    integer_literal,
)

#: Every digit run lexes as one number token, so ``010`` is refused whole.
_NUMBER = r"0[xX][0-9a-fA-F]+|[0-9]+"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<number>""" + _NUMBER + r""")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
  | (?P<eq>==)
  | (?P<punct>[{}();:,])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> List[str]:
    tokens: List[str] = []
    position = 0
    line = 1
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        column = position - source.rfind("\n", 0, position)
        if match is None:
            raise P4SyntaxError(f"unexpected character {source[position]!r}", line, column)
        text = match.group(0)
        if match.lastgroup == "number" and integer_literal(text) is None:
            raise P4SyntaxError(
                f"integer literal {text!r} has a leading zero; "
                "write a decimal without one or a 0x hexadecimal",
                line,
                column,
            )
        line += text.count("\n")
        position = match.end()
        if match.lastgroup in ("ws", "comment"):
            continue
        tokens.append(text)
    return tokens


class P4Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: List[str], source: str = ""):
        self._tokens = tokens
        self._pos = 0
        self._source = source

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _peek(self) -> Optional[str]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _advance(self) -> str:
        token = self._peek()
        if token is None:
            raise P4SyntaxError("unexpected end of input")
        self._pos += 1
        return token

    def _expect(self, expected: str) -> str:
        token = self._advance()
        if token != expected:
            raise P4SyntaxError(f"expected {expected!r}, found {token!r}")
        return token

    def _expect_ident(self) -> str:
        token = self._advance()
        if not re.match(r"^[A-Za-z_]", token):
            raise P4SyntaxError(f"expected an identifier, found {token!r}")
        return token

    def _expect_number(self) -> int:
        token = self._advance()
        value = integer_literal(token)
        if value is None:
            raise P4SyntaxError(f"expected a number, found {token!r}")
        return value

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse(self, name: str = "p4_program") -> P4Program:
        """Parse the full program and validate cross-references."""
        program = P4Program(name=name, source=self._source)
        while self._peek() is not None:
            keyword = self._advance()
            if keyword == "header_type":
                header_type = self._parse_header_type()
                program.header_types[header_type.name] = header_type
            elif keyword == "header":
                type_name = self._expect_ident()
                instance_name = self._expect_ident()
                self._expect(";")
                program.headers[instance_name] = HeaderInstance(instance_name, type_name)
            elif keyword == "metadata":
                type_name = self._expect_ident()
                instance_name = self._expect_ident()
                self._expect(";")
                program.headers[instance_name] = HeaderInstance(
                    instance_name, type_name, is_metadata=True
                )
            elif keyword == "register":
                register = self._parse_register()
                program.registers[register.name] = register
            elif keyword == "action":
                action = self._parse_action()
                program.actions[action.name] = action
            elif keyword == "table":
                table = self._parse_table()
                program.tables[table.name] = table
            elif keyword == "control":
                control_name = self._expect_ident()
                if control_name != "ingress":
                    raise P4SyntaxError(f"only the 'ingress' control is supported, got {control_name!r}")
                program.control_flow = self._parse_control()
            else:
                raise P4SyntaxError(f"unexpected top-level keyword {keyword!r}")
        program.validate()
        return program

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def _parse_header_type(self) -> HeaderType:
        name = self._expect_ident()
        self._expect("{")
        self._expect("fields")
        self._expect("{")
        fields: List[Tuple[str, int]] = []
        while self._peek() != "}":
            field_name = self._expect_ident()
            self._expect(":")
            width = self._expect_number()
            self._expect(";")
            fields.append((field_name, width))
        self._expect("}")
        self._expect("}")
        return HeaderType(name=name, fields=fields)

    def _parse_register(self) -> Register:
        name = self._expect_ident()
        self._expect("{")
        width = 32
        instance_count = 1024
        while self._peek() != "}":
            key = self._expect_ident()
            self._expect(":")
            value = self._expect_number()
            self._expect(";")
            if key == "width":
                width = value
            elif key == "instance_count":
                instance_count = value
            else:
                raise P4SyntaxError(f"unknown register attribute {key!r}")
        self._expect("}")
        return Register(name=name, width=width, instance_count=instance_count)

    def _parse_action(self) -> Action:
        name = self._expect_ident()
        self._expect("(")
        params: List[str] = []
        while self._peek() != ")":
            params.append(self._expect_ident())
            if self._peek() == ",":
                self._advance()
        self._expect(")")
        self._expect("{")
        body: List[PrimitiveCall] = []
        while self._peek() != "}":
            op = self._expect_ident()
            self._expect("(")
            args: List[str] = []
            while self._peek() != ")":
                args.append(self._advance())
                if self._peek() == ",":
                    self._advance()
            self._expect(")")
            self._expect(";")
            body.append(PrimitiveCall(op=op, args=args))
        self._expect("}")
        return Action(name=name, params=params, body=body)

    def _parse_table(self) -> Table:
        name = self._expect_ident()
        self._expect("{")
        reads: List[TableRead] = []
        actions: List[str] = []
        size = 1024
        default_action: Optional[str] = None
        while self._peek() != "}":
            section = self._expect_ident()
            if section == "reads":
                self._expect("{")
                while self._peek() != "}":
                    field = self._expect_ident()
                    self._expect(":")
                    match_kind = self._expect_ident()
                    self._expect(";")
                    reads.append(TableRead(field=field, match_kind=match_kind))
                self._expect("}")
            elif section == "actions":
                self._expect("{")
                while self._peek() != "}":
                    actions.append(self._expect_ident())
                    self._expect(";")
                self._expect("}")
            elif section == "size":
                self._expect(":")
                size = self._expect_number()
                self._expect(";")
            elif section == "default_action":
                self._expect(":")
                default_action = self._expect_ident()
                self._expect(";")
            else:
                raise P4SyntaxError(f"unknown table section {section!r}")
        self._expect("}")
        return Table(
            name=name, reads=reads, actions=actions, size=size, default_action=default_action
        )

    def _parse_control(self) -> List[ControlApply]:
        self._expect("{")
        applies: List[ControlApply] = []
        while self._peek() != "}":
            keyword = self._advance()
            if keyword == "apply":
                self._expect("(")
                table = self._expect_ident()
                self._expect(")")
                self._expect(";")
                applies.append(ControlApply(table=table))
            elif keyword == "if":
                self._expect("(")
                field = self._expect_ident()
                self._expect("==")
                value = self._expect_number()
                self._expect(")")
                self._expect("{")
                self._expect("apply")
                self._expect("(")
                table = self._expect_ident()
                self._expect(")")
                self._expect(";")
                self._expect("}")
                applies.append(
                    ControlApply(table=table, condition_field=field, condition_value=value)
                )
            else:
                raise P4SyntaxError(f"unexpected control statement {keyword!r}")
        self._expect("}")
        return applies


def parse(source: str, name: str = "p4_program") -> P4Program:
    """Parse P4-14-like ``source`` into a validated :class:`P4Program`."""
    return P4Parser(_tokenize(source), source=source).parse(name=name)
