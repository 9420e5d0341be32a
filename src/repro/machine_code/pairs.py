"""The :class:`MachineCode` container.

Machine code in Druzhba is "a list of string and integer pairs that specify
ALUs' control flow and computational behavior" (paper §3.1).  This module
provides a small mapping-like container with file I/O, merging, validation
against a pipeline's expected pair names and diff helpers used by the fuzzing
reports.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple, Union

from ..errors import MachineCodeError, MachineCodeValueError
from . import naming

PathLike = Union[str, Path]


class MachineCode(Mapping[str, int]):
    """An immutable-by-convention mapping from primitive names to integer values.

    The container behaves like a read-only ``Mapping[str, int]``; use
    :meth:`with_pairs`, :meth:`without`, or :meth:`merged` to derive modified
    copies (the fuzzing / failure-injection code relies on these).
    """

    def __init__(self, pairs: Union[Mapping[str, int], Iterable[Tuple[str, int]], None] = None):
        self._pairs: Dict[str, int] = {}
        if pairs is None:
            items: Iterable[Tuple[str, int]] = ()
        elif isinstance(pairs, Mapping):
            items = pairs.items()
        else:
            items = pairs
        for name, value in items:
            self._set(name, value)

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> int:
        return self._pairs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MachineCode({len(self._pairs)} pairs)"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MachineCode):
            return self._pairs == other._pairs
        if isinstance(other, Mapping):
            return self._pairs == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._pairs.items())))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _set(self, name: str, value: int) -> None:
        if not isinstance(name, str) or not name:
            raise MachineCodeError(f"machine code names must be non-empty strings, got {name!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise MachineCodeValueError(
                f"machine code values must be integers, got {value!r} for {name!r}"
            )
        if value < 0:
            raise MachineCodeValueError(
                f"machine code values are unsigned integers, got {value} for {name!r}"
            )
        self._pairs[name] = int(value)

    @classmethod
    def from_file(cls, path: PathLike) -> "MachineCode":
        """Load machine code from a text or JSON file.

        Two formats are accepted:

        * JSON: an object mapping names to integer values (files ending in
          ``.json``);
        * text: one ``name value`` pair per line, ``#`` comments and blank
          lines ignored (matching the paper's "list of string and integer
          pairs" presentation).
        """
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".json":
            data = json.loads(text)
            if not isinstance(data, dict):
                raise MachineCodeError(f"{path}: JSON machine code must be an object")
            return cls(data)
        pairs: List[Tuple[str, int]] = []
        for line_number, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise MachineCodeError(
                    f"{path}:{line_number}: expected 'name value', got {raw_line!r}"
                )
            name, value_text = parts
            try:
                value = int(value_text)
            except ValueError:
                raise MachineCodeError(
                    f"{path}:{line_number}: value {value_text!r} is not an integer"
                ) from None
            pairs.append((name, value))
        return cls(pairs)

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------
    def with_pairs(self, extra: Mapping[str, int]) -> "MachineCode":
        """Return a copy with ``extra`` pairs added/overridden."""
        merged = dict(self._pairs)
        merged.update(extra)
        return MachineCode(merged)

    def without(self, names: Iterable[str]) -> "MachineCode":
        """Return a copy with the given names removed (used for failure injection)."""
        removed = set(names)
        return MachineCode({k: v for k, v in self._pairs.items() if k not in removed})

    def as_dict(self) -> Dict[str, int]:
        """Return a plain ``dict`` copy of the pairs."""
        return dict(self._pairs)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def missing(self, expected: Iterable[str]) -> List[str]:
        """Names in ``expected`` that have no pair here (sorted)."""
        return sorted(set(expected) - set(self._pairs))

def expected_names(
    depth: int,
    width: int,
    stateful_holes: Sequence[str],
    stateless_holes: Sequence[str],
    stateful_operands: int,
    stateless_operands: int,
) -> List[str]:
    """Enumerate every machine-code pair name a pipeline configuration needs.

    This is the "contract" between a compiler targeting Druzhba and the
    simulator: dgen uses it to validate supplied machine code and the fuzzing
    reports use it to explain missing-pair failures.
    """
    names: List[str] = []
    for stage in range(depth):
        for slot in range(width):
            for operand in range(stateless_operands):
                names.append(naming.input_mux_name(stage, naming.STATELESS, slot, operand))
            for hole in stateless_holes:
                names.append(naming.alu_hole_name(stage, naming.STATELESS, slot, hole))
            for operand in range(stateful_operands):
                names.append(naming.input_mux_name(stage, naming.STATEFUL, slot, operand))
            for hole in stateful_holes:
                names.append(naming.alu_hole_name(stage, naming.STATEFUL, slot, hole))
        for container in range(width):
            names.append(naming.output_mux_name(stage, container))
    return names
