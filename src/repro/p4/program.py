"""P4-14-like program model.

dRMT dgen (paper §4.1) consumes "a P4 file representing the algorithmic
behavior specified in the context of a feed-forward pipeline" and converts it
into a DAG of match+action table dependencies.  The reproduction models the
subset of P4-14 that flow requires: header types and instances, metadata,
actions built from primitive operations, match+action tables, registers
(stateful memories) and an ingress control flow that applies tables in
order (optionally under a condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import P4SemanticError

#: Match kinds supported by table reads.
MATCH_KINDS = ("exact", "ternary", "lpm")

#: Primitive action operations supported by the interpreter.
PRIMITIVE_OPS = (
    "modify_field",
    "add_to_field",
    "subtract_from_field",
    "register_read",
    "register_write",
    "drop",
    "no_op",
)

#: Positions of each primitive's value arguments, which must each be an
#: action parameter, a field or an integer literal.
_VALUE_ARGS = {
    "modify_field": (1,),
    "add_to_field": (1,),
    "subtract_from_field": (1,),
    "register_read": (2,),
    "register_write": (1, 2),
}


def _is_integer(text: str) -> bool:
    try:
        int(text, 0)
    except ValueError:
        return False
    return True


@dataclass
class HeaderType:
    """A P4 header type: an ordered list of (field name, bit width)."""

    name: str
    fields: List[Tuple[str, int]]

    def field_names(self) -> List[str]:
        """Names of the declared fields."""
        return [name for name, _width in self.fields]

    def field_width(self, name: str) -> int:
        """Bit width of one field."""
        for field_name, width in self.fields:
            if field_name == name:
                return width
        raise P4SemanticError(f"header type {self.name!r} has no field {name!r}")


@dataclass
class HeaderInstance:
    """A named instance of a header type (or metadata when ``is_metadata``)."""

    name: str
    header_type: str
    is_metadata: bool = False


@dataclass
class PrimitiveCall:
    """One primitive operation inside an action body.

    ``args`` are strings: fully qualified field references
    (``header.field``), action-parameter names, integer literals or register
    names, interpreted per operation by the dRMT simulator.
    """

    op: str
    args: List[str]

    def __post_init__(self) -> None:
        if self.op not in PRIMITIVE_OPS:
            raise P4SemanticError(
                f"unsupported primitive {self.op!r}; supported: {', '.join(PRIMITIVE_OPS)}"
            )


@dataclass
class Action:
    """A P4 action: a parameter list and a body of primitive calls."""

    name: str
    params: List[str]
    body: List[PrimitiveCall]

    def fields_written(self) -> List[str]:
        """Fully qualified fields this action may modify."""
        written: List[str] = []
        for call in self.body:
            if call.op in ("modify_field", "add_to_field", "subtract_from_field", "register_read"):
                if call.args:
                    written.append(call.args[0])
        return written

    def fields_read(self) -> List[str]:
        """Fully qualified fields this action may read."""
        read: List[str] = []
        for call in self.body:
            if call.op in ("modify_field", "add_to_field", "subtract_from_field"):
                for arg in call.args[1:]:
                    if "." in arg:
                        read.append(arg)
            elif call.op == "register_write":
                for arg in call.args[1:]:
                    if "." in arg:
                        read.append(arg)
        return read

    def registers_used(self) -> List[str]:
        """Registers read or written by this action."""
        registers: List[str] = []
        for call in self.body:
            if call.op == "register_read" and len(call.args) >= 2:
                registers.append(call.args[1])
            elif call.op == "register_write" and call.args:
                registers.append(call.args[0])
        return registers

    def registers_written(self) -> List[str]:
        """Registers written by this action."""
        return [call.args[0] for call in self.body if call.op == "register_write" and call.args]


@dataclass
class TableRead:
    """One entry of a table's ``reads`` clause."""

    field: str
    match_kind: str

    def __post_init__(self) -> None:
        if self.match_kind not in MATCH_KINDS:
            raise P4SemanticError(
                f"unsupported match kind {self.match_kind!r}; supported: {', '.join(MATCH_KINDS)}"
            )


@dataclass
class Table:
    """A match+action table."""

    name: str
    reads: List[TableRead]
    actions: List[str]
    size: int = 1024
    default_action: Optional[str] = None

    def match_fields(self) -> List[str]:
        """Fully qualified fields this table matches on."""
        return [read.field for read in self.reads]

    def action_names(self) -> List[str]:
        """Every action the table may run: its entry actions, then the default."""
        if self.default_action is None or self.default_action in self.actions:
            return list(self.actions)
        return [*self.actions, self.default_action]

    @property
    def is_exact(self) -> bool:
        """True when every read uses the exact match kind.

        The single source of truth for "dict-specialisable": the fused dRMT
        generator and :meth:`MatchActionTable.exact_index` both key on it.
        """
        return all(read.match_kind == "exact" for read in self.reads)


@dataclass
class Register:
    """A stateful register array."""

    name: str
    width: int = 32
    instance_count: int = 1024


@dataclass
class ControlApply:
    """One step of the ingress control flow: apply ``table`` (optionally guarded).

    The optional ``condition`` is a fully qualified field name compared
    against a constant (``field == value``); this captures the conditional
    application P4-14 expresses with ``if (...) { apply(t); }`` without
    modelling full expressions.
    """

    table: str
    condition_field: Optional[str] = None
    condition_value: Optional[int] = None


@dataclass
class P4Program:
    """A complete P4-14-like program."""

    name: str
    header_types: Dict[str, HeaderType] = field(default_factory=dict)
    headers: Dict[str, HeaderInstance] = field(default_factory=dict)
    actions: Dict[str, Action] = field(default_factory=dict)
    tables: Dict[str, Table] = field(default_factory=dict)
    registers: Dict[str, Register] = field(default_factory=dict)
    control_flow: List[ControlApply] = field(default_factory=list)
    source: str = ""

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def all_fields(self) -> List[str]:
        """Every fully qualified field (``instance.field``) declared by the program."""
        fields: List[str] = []
        for instance in self.headers.values():
            header_type = self.header_types.get(instance.header_type)
            if header_type is None:
                raise P4SemanticError(
                    f"header {instance.name!r} uses undeclared header type {instance.header_type!r}"
                )
            fields.extend(f"{instance.name}.{name}" for name in header_type.field_names())
        return fields

    def field_width(self, qualified: str) -> int:
        """Bit width of a fully qualified field."""
        if "." not in qualified:
            raise P4SemanticError(f"field reference {qualified!r} must be 'instance.field'")
        instance_name, field_name = qualified.split(".", 1)
        instance = self.headers.get(instance_name)
        if instance is None:
            raise P4SemanticError(f"unknown header instance {instance_name!r}")
        return self.header_types[instance.header_type].field_width(field_name)

    def table_order(self) -> List[str]:
        """Names of the tables in control-flow application order."""
        return [apply.table for apply in self.control_flow]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-references: tables, actions, fields and registers must exist.

        Every register must also hold at least one cell, since an access
        reduces its index modulo the register's ``instance_count``.
        """
        known_fields = set(self.all_fields())
        for register in self.registers.values():
            if register.instance_count < 1:
                raise P4SemanticError(
                    f"register {register.name!r} has instance_count "
                    f"{register.instance_count}; it needs at least one cell"
                )
        for table in self.tables.values():
            for read in table.reads:
                if read.field not in known_fields:
                    raise P4SemanticError(
                        f"table {table.name!r} matches on unknown field {read.field!r}"
                    )
            for action_name in table.action_names():
                if action_name not in self.actions:
                    raise P4SemanticError(
                        f"table {table.name!r} references unknown action {action_name!r}"
                    )
        for action in self.actions.values():
            for call in action.body:
                for arg in call.args:
                    if "." in arg and not arg.replace(".", "").isdigit():
                        if arg not in known_fields:
                            raise P4SemanticError(
                                f"action {action.name!r} references unknown field {arg!r}"
                            )
                positions = _VALUE_ARGS.get(call.op, ())
                for arg in (call.args[index] for index in positions if index < len(call.args)):
                    if arg not in action.params and "." not in arg and not _is_integer(arg):
                        raise P4SemanticError(
                            f"action {action.name!r} passes {arg!r} to {call.op}; an argument "
                            "must be a parameter, a declared field or an integer"
                        )
            for register_name in action.registers_used():
                if register_name not in self.registers:
                    raise P4SemanticError(
                        f"action {action.name!r} references unknown register {register_name!r}"
                    )
        for apply in self.control_flow:
            if apply.table not in self.tables:
                raise P4SemanticError(
                    f"control flow applies unknown table {apply.table!r}"
                )
            if apply.condition_field is not None and apply.condition_field not in known_fields:
                raise P4SemanticError(
                    f"control-flow condition references unknown field {apply.condition_field!r}"
                )
