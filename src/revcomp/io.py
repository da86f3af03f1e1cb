"""JSON schemas for channels, states and reports.

Parsing is strict: every failure names the offending field, and a field
outside an object's schema is refused, not ignored.  Serialization
is deterministic (fixed key order, plain Python scalars) so identical
inputs produce byte-identical files.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .channels import (
    Alphabet,
    ClassicalChannel,
    make_constant,
    make_erasure,
    make_generalized_erasure,
    make_identity,
)
from .errors import ValidationError, integer
from .quantum import DensityMatrix, ErasureVerdict, KrausChannel

SHORTHAND_TYPES = ("identity", "constant", "erasure", "generalized_erasure")


def _require(data: dict, field: str, what: str) -> Any:
    if field not in data:
        raise ValidationError(f"{what} is missing required field {field!r}")
    return data[field]


def _check_fields(data: dict, fields: tuple[str, ...], what: str) -> None:
    """Reject a key of ``data`` outside its schema ``fields``, naming it and ``what``."""
    for key in data:
        if key not in fields:
            raise ValidationError(f"{what} has unknown field {key!r}")


def _int_field(data: dict, field: str, what: str) -> int:
    """An integer field of at least 1: each counts symbols or dimensions."""
    return integer(_require(data, field, what), f"field {field!r} of {what}", 1)


def _finite_number(value: Any) -> float | None:
    """``value`` as a float if it is a finite number (not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _number_field(data: dict, field: str, what: str) -> float:
    value = _require(data, field, what)
    number = _finite_number(value)
    if number is None:
        raise ValidationError(f"field {field!r} of {what} must be a finite number, got {value!r}")
    return number


def _list_field(data: dict, field: str, what: str, required: bool = True) -> list | None:
    if not required and field not in data:
        return None
    value = _require(data, field, what)
    if not isinstance(value, list):
        raise ValidationError(f"field {field!r} of {what} must be a list, got {value!r}")
    return value


def _check_labels(labels: list, where: str, seen: set | None = None) -> None:
    """Reject a label that is not a JSON string, or that repeats one before
    it or in ``seen``, by its index; none is converted."""
    seen = set() if seen is None else seen
    for i, label in enumerate(labels):
        if not isinstance(label, str):
            raise ValidationError(f"{where} entry {i} must be a string, got {label!r}")
        if label in seen:
            raise ValidationError(f"{where} entry {i} repeats the label {label!r}")
        seen.add(label)


def _labels_field(data: dict, field: str, what: str, required: bool = True) -> list | None:
    labels = _list_field(data, field, what, required)
    if labels == []:
        raise ValidationError(f"field {field!r} of {what} must list at least one label")
    _check_labels(labels or [], f"field {field!r} of {what}")
    return labels


def _numbers_field(data: dict, field: str, what: str, required: bool = True) -> list[float] | None:
    values = _list_field(data, field, what, required)
    if values is None:
        return None
    numbers = [_finite_number(v) for v in values]
    if None in numbers:
        raise ValidationError(f"field {field!r} of {what} must contain finite numbers only")
    return numbers


def load_json(path: str | Path) -> Any:
    """Decoded JSON file; the literals ``NaN``, ``Infinity`` and ``-Infinity``
    are rejected.  A number literal that overflows to infinity is left to
    the validators of the object it ends up in."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None

    def reject(literal: str) -> float:
        raise ValidationError(f"{path} contains {literal}, which is not a finite number")

    try:
        return json.loads(text, parse_constant=reject)
    except ValidationError:
        raise
    except ValueError as exc:  # malformed text, or an integer literal too long to convert
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


_SCALARS = frozenset((str, int, float, bool, type(None)))
_ARRAYS = frozenset((list, tuple))


@functools.cache
def _flat_encoder(level: int) -> Callable[[Any, int], Sequence[str]]:
    """CPython's C JSON encoder whose item separator is a comma, a newline
    and the indent of the items at depth ``level + 1``.  A JSON string never
    holds a raw newline, so every raw newline it writes is such a separator.
    """
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
        ": ", ",\n" + "  " * (level + 1), False, False, True)


def _emit(value: Any, level: int) -> str:
    """``value`` at depth ``level`` as ``json.dumps(value, indent=2,
    ensure_ascii=False)`` writes it there.

    A nonempty list or dict of scalars is one :func:`_flat_encoder` call with
    its brackets moved onto their own lines.  So is a list of nonempty lists
    of scalars, encoded with the inner items' separator: only the separators
    between the inner lists follow a ``]``, and one ``str.replace``
    re-indents them.  Other containers recurse; a dict with a non-string key
    is left to ``json.dumps``, which converts its keys, re-indented.
    """
    if not isinstance(value, (list, tuple, dict)) or not value:
        return "".join(_flat_encoder(level)(value, 0))
    inner = "\n" + "  " * (level + 1)
    outer = "\n" + "  " * level
    is_dict = isinstance(value, dict)
    kinds = set(map(type, value.values() if is_dict else value))
    if kinds <= _SCALARS:
        text = "".join(_flat_encoder(level)(value, 0))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        if not all(isinstance(key, str) for key in value):
            return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", outer)
        items = (json.encoder.encode_basestring(key) + ": " + _emit(item, level + 1)
                 for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    if (kinds <= _ARRAYS and all(value)
            and set(map(type, itertools.chain.from_iterable(value))) <= _SCALARS):
        deep = "\n" + "  " * (level + 2)
        rows = "".join(_flat_encoder(level + 1)(value, 0))[2:-2]
        rows = rows.replace("]," + deep + "[", inner + "]," + inner + "[" + deep)
        return "[" + inner + "[" + deep + rows + inner + "]" + outer + "]"
    items = (_emit(item, level + 1) for item in value)
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def dump_json(data: Any) -> str:
    """``json.dumps(data, indent=2, ensure_ascii=False)`` and a newline, byte
    for byte, with the scalar containers written by the C encoder
    (:func:`_emit`).  Before Python 3.13, ``json.dumps`` takes its
    pure-Python encoder whenever ``indent`` is set."""
    return _emit(data, 0) + "\n"


# ---------------------------------------------------------------------------
# classical channels
# ---------------------------------------------------------------------------

def _matrix_from_data(raw: Any, what: str) -> np.ndarray:
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ValidationError(f"field 'matrix' of {what} must be a list of rows")
    lengths = {len(row) for row in raw}
    if len(lengths) > 1:
        raise ValidationError(f"field 'matrix' of {what} has rows of unequal length")
    kinds = {type(v) for row in raw for v in row}
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in kinds):
        raise ValidationError(f"field 'matrix' of {what} must contain numbers")
    try:
        return np.asarray(raw, dtype=float)
    except OverflowError:
        raise ValidationError(f"field 'matrix' of {what} must contain finite numbers") from None


def _classical_from_data(data: dict) -> ClassicalChannel:
    _check_fields(data, ("input_labels", "output_labels", "matrix"), "channel file")
    inp = _labels_field(data, "input_labels", "channel file")
    out = _labels_field(data, "output_labels", "channel file")
    matrix = _matrix_from_data(_require(data, "matrix", "channel file"), "channel file")
    return ClassicalChannel(Alphabet(tuple(inp)), Alphabet(tuple(out)), matrix)


def _shorthand_from_data(data: dict) -> ClassicalChannel:
    kind = data["type"]
    if kind not in SHORTHAND_TYPES:
        raise ValidationError(f"unknown channel type {kind!r}, expected one of {SHORTHAND_TYPES}")
    what = kind.replace("_", " ") + " shorthand"
    fields = {"identity": ("n",), "constant": ("n", "masses", "output_labels"),
              "erasure": ("r", "eta"), "generalized_erasure": ("blocks", "etas")}[kind]
    _check_fields(data, ("type", *fields), what)
    if kind == "identity":
        return make_identity(_int_field(data, "n", what))
    if kind == "constant":
        return make_constant(_int_field(data, "n", what),
                             _numbers_field(data, "masses", what, required=False),
                             _labels_field(data, "output_labels", what, required=False))
    if kind == "erasure":
        return make_erasure(_int_field(data, "r", what), _number_field(data, "eta", what))
    blocks = _list_field(data, "blocks", what)
    if not all(isinstance(block, list) for block in blocks):
        raise ValidationError(f"field 'blocks' of {what} must be a list of label lists")
    seen: set = set()  # a label may not repeat across blocks either
    for b, block in enumerate(blocks):
        _check_labels(block, f"field 'blocks' of {what}, block {b},", seen)
    return make_generalized_erasure(blocks, _numbers_field(data, "etas", what))


def parse_channel_data(data: Any) -> ClassicalChannel | KrausChannel:
    """Channel from decoded JSON: full matrix, shorthand, or Kraus form."""
    if not isinstance(data, dict):
        raise ValidationError("channel file must contain a JSON object")
    if data.keys() & {"kraus", "in_dim", "out_dim"}:
        return parse_kraus_data(data)
    if "type" in data:
        return _shorthand_from_data(data)
    return _classical_from_data(data)


def parse_channel_file(path: str | Path) -> ClassicalChannel | KrausChannel:
    return parse_channel_data(load_json(path))


def channel_to_data(channel: ClassicalChannel) -> dict:
    return {
        "input_labels": list(channel.input.labels),
        "output_labels": list(channel.output.labels),
        "matrix": [[float(v) for v in row] for row in channel.matrix],
    }


# ---------------------------------------------------------------------------
# complex matrices, states, Kraus channels
# ---------------------------------------------------------------------------

def complex_matrix_to_data(m: np.ndarray) -> dict:
    return {
        "re": [[float(v) for v in row] for row in np.real(m)],
        "im": [[float(v) for v in row] for row in np.imag(m)],
    }


def complex_matrix_from_data(data: Any, what: str) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be an object with 're' and 'im' parts")
    _check_fields(data, ("re", "im"), what)
    re = _matrix_from_data(_require(data, "re", what), what)
    im = _matrix_from_data(_require(data, "im", what), what)
    if re.shape != im.shape:
        raise ValidationError(f"{what} has mismatched 're' shape {re.shape} and 'im' shape {im.shape}")
    return re + 1j * im


def parse_density_matrix_data(data: Any) -> DensityMatrix:
    return DensityMatrix(complex_matrix_from_data(data, "density matrix"))


def density_matrix_to_data(rho: DensityMatrix) -> dict:
    return complex_matrix_to_data(rho.matrix)


def parse_kraus_data(data: dict) -> KrausChannel:
    _check_fields(data, ("in_dim", "out_dim", "kraus"), "Kraus channel file")
    in_dim = _int_field(data, "in_dim", "Kraus channel file")
    out_dim = _int_field(data, "out_dim", "Kraus channel file")
    raw_ops = _require(data, "kraus", "Kraus channel file")
    if not isinstance(raw_ops, list) or len(raw_ops) == 0:
        raise ValidationError("field 'kraus' must be a nonempty list of operators")
    ops = []
    for i, raw in enumerate(raw_ops):
        op = complex_matrix_from_data(raw, f"Kraus operator {i}")
        if op.shape != (out_dim, in_dim):
            raise ValidationError(
                f"Kraus operator {i} has shape {op.shape}, expected ({out_dim}, {in_dim})"
            )
        ops.append(op)
    return KrausChannel(tuple(ops))


def kraus_to_data(channel: KrausChannel) -> dict:
    return {
        "in_dim": channel.in_dim,
        "out_dim": channel.out_dim,
        "kraus": [complex_matrix_to_data(k) for k in channel.kraus],
    }


def verdict_to_data(verdict: ErasureVerdict) -> dict:
    return {
        "dim": verdict.dim,
        "eta": verdict.eta,
        "epsilon": verdict.epsilon,
        "threshold": verdict.threshold,
        "compressible": verdict.compressible,
        "gamma": verdict.gamma,
        "seed": verdict.seed,
        "probe_count": verdict.probe_count,
        "min_fidelity": verdict.min_fidelity,
        "witness": density_matrix_to_data(verdict.witness),
        "rejections": [
            {"kind": r.kind, "kernel_dim": r.kernel_dim, "witness_fidelity": r.witness_fidelity}
            for r in verdict.rejections
        ],
    }
