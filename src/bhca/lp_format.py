"""CPLEX-LP-format export and a reader of that output for round-trip checks.

The writer is byte-stable for a fixed model: fixed section order
(Maximize / Subject To / Bounds / Binaries / End), constraint names taken
from the row tags, coefficients rendered with ``repr`` so parsing recovers
them exactly, and long rows folded at a fixed width. The reader accepts
only the constructs the writer emits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelInstance

_FOLD_WIDTH = 220


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _fold(prefix: str, tokens: list[str]) -> list[str]:
    lines = []
    current = prefix
    for tok in tokens:
        if len(current) + len(tok) + 1 > _FOLD_WIDTH and current != prefix:
            lines.append(current)
            current = " "
        current += " " + tok
    lines.append(current)
    return lines


def _terms(cols, coefs, names) -> list[str]:
    tokens = []
    for col, coef in zip(cols, coefs):
        sign = "+" if coef >= 0 else "-"
        tokens.extend([sign, _num(abs(coef)), names[col]])
    return tokens


def _col_names(model: ModelInstance) -> list[str]:
    cat = model.catalog
    return [cat.col_name(j) for j in range(model.num_cols)]


def _bound_cols(model: ModelInstance) -> np.ndarray:
    """Columns the Bounds section lists: non-binary, not ``[0, inf)``."""
    return np.nonzero(~model.binary & ((model.lower != 0.0) | (model.upper != np.inf)))[0]


def export_lp(model: ModelInstance) -> str:
    """Render the model as CPLEX-LP text; repeated calls are byte-identical."""
    names = _col_names(model)
    out = ["\\ Problem: bhca"]

    obj_cols = np.nonzero(model.objective)[0].tolist()
    out.append("Maximize")
    out.extend(_fold(" obj:", _terms(obj_cols, model.objective[obj_cols].tolist(), names)))

    # Each row is rendered from its term strings, and every number once per
    # distinct value. A row wider than _FOLD_WIDTH is folded.
    out.append("Subject To")
    coefs, rhs = model.coefs.tolist(), model.rhs.tolist()
    signed = {v: f" {'+' if v >= 0 else '-'} {_num(abs(v))} " for v in set(coefs)}
    terms = [signed[v] + names[c] for v, c in zip(coefs, model.cols.tolist())]
    rhs_txt = {v: _num(v) for v in set(rhs)}
    ptr = model.indptr.tolist()
    for tag, sense, b, start, stop in zip(model.tags, model.senses.tolist(), rhs, ptr[:-1], ptr[1:]):
        line = f" {tag}:{''.join(terms[start:stop])} {sense} {rhs_txt[b]}"
        if len(line) <= _FOLD_WIDTH:
            out.append(line)
        else:
            tokens = "".join(terms[start:stop]).split() + [sense, rhs_txt[b]]
            out.extend(_fold(f" {tag}:", tokens))

    out.append("Bounds")
    shown = _bound_cols(model)
    lows, highs = model.lower[shown].tolist(), model.upper[shown].tolist()
    bound_txt = {v: _num(v) for v in {*lows, *highs} if v != np.inf}
    for j, lo, hi in zip(shown.tolist(), lows, highs):
        if hi == np.inf:
            out.append(f" {names[j]} >= {bound_txt[lo]}")
        else:
            out.append(f" {bound_txt[lo]} <= {names[j]} <= {bound_txt[hi]}")

    binaries = [names[j] for j in np.nonzero(model.binary)[0].tolist()]
    if binaries:
        out.append("Binaries")
        out.extend(_fold("", binaries))
    out.append("End")
    return "\n".join(out) + "\n"


@dataclass
class ParsedLp:
    """Structured view of an LP document, for comparisons and rebuilds.

    ``constraints`` maps each row name to ``(terms, sense, rhs)`` in
    document order; ``bounds`` holds the Bounds lines as ``(lo, hi)``.
    """

    objective: dict[str, float]
    constraints: dict[str, tuple[tuple[tuple[str, float], ...], str, float]]
    bounds: dict[str, tuple[float, float]]
    binaries: tuple[str, ...]

    def canonical_rows(self):
        return {
            name: (tuple(sorted(terms)), sense, rhs)
            for name, (terms, sense, rhs) in self.constraints.items()
        }


_SECTIONS = ("Maximize", "Subject To", "Bounds", "Binaries", "End")


def _accumulate_terms(tokens: list[str]) -> dict[str, float]:
    terms: dict[str, float] = {}
    sign = 1.0
    coef: float | None = None
    for tok in tokens:
        if tok == "+":
            if coef is not None:
                raise ValueError(f"dangling coefficient before '{tok}'")
            sign = 1.0
        elif tok == "-":
            if coef is not None:
                raise ValueError(f"dangling coefficient before '{tok}'")
            sign = -1.0
        else:
            try:
                value = float(tok)
            except ValueError:
                terms[tok] = terms.get(tok, 0.0) + sign * (1.0 if coef is None else coef)
                sign = 1.0
                coef = None
            else:
                if coef is not None:
                    raise ValueError(f"two consecutive numbers near '{tok}'")
                coef = value
    if coef is not None:
        raise ValueError("expression ends with a dangling coefficient")
    return terms


def parse_lp(text: str) -> ParsedLp:
    """Parse an LP document in the form ``export_lp`` writes.

    Section headers are the five ``export_lp`` writes, alone on a line at
    column 0; every other line is indented. A row reads ``name: expr sense
    rhs`` with sense ``<=``, ``>=`` or ``=`` and may fold onto following
    lines; a bound reads ``lo <= x <= hi`` or ``x >= lo``. ``\\`` starts a
    comment. Anything else raises ``ValueError``.
    """
    section = None
    objective_tokens: list[str] = []
    constraint_chunks: list[list[str]] = []
    bounds_lines: list[list[str]] = []
    binary_tokens: list[str] = []

    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line:
            continue
        if not line[0].isspace():
            if line not in _SECTIONS:
                raise ValueError(f"unknown section header: {line!r}")
            section = line
            continue
        tokens = line.split()
        if section == "Maximize":
            objective_tokens.extend(tokens)
        elif section == "Subject To":
            if tokens[0].endswith(":"):
                constraint_chunks.append(tokens)
            elif constraint_chunks:
                constraint_chunks[-1].extend(tokens)
            else:
                raise ValueError(f"constraint continuation before any constraint: {line!r}")
        elif section == "Bounds":
            bounds_lines.append(tokens)
        elif section == "Binaries":
            binary_tokens.extend(tokens)
        else:
            raise ValueError(f"content outside any section: {line!r}")

    # Objective: strip the label.
    if objective_tokens and objective_tokens[0].endswith(":"):
        objective_tokens = objective_tokens[1:]
    objective = _accumulate_terms(objective_tokens)

    constraints = {}
    for chunk in constraint_chunks:
        name = chunk[0][:-1]
        body = chunk[1:]
        sense_pos = next((i for i, t in enumerate(body) if t in ("<=", ">=", "=")), None)
        if sense_pos is None or sense_pos != len(body) - 2:
            raise ValueError(f"constraint {name!r} lacks 'expr <sense> rhs' shape")
        terms = _accumulate_terms(body[:sense_pos])
        constraints[name] = (tuple(terms.items()), body[sense_pos], float(body[-1]))

    bounds = {}
    for toks in bounds_lines:
        if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            bounds[toks[2]] = (float(toks[0]), float(toks[4]))
        elif len(toks) == 3 and toks[1] == ">=":
            bounds[toks[0]] = (float(toks[2]), float("inf"))
        else:
            raise ValueError(f"unsupported bounds line: {' '.join(toks)!r}")

    return ParsedLp(
        objective=objective,
        constraints=constraints,
        bounds=bounds,
        binaries=tuple(binary_tokens),
    )


def model_canonical_rows(model: ModelInstance):
    """The model's rows in the same comparable shape ParsedLp produces."""
    names = _col_names(model)
    cols, coefs, ptr = model.cols.tolist(), model.coefs.tolist(), model.indptr.tolist()
    rows = {}
    for tag, sense, rhs, start, stop in zip(
        model.tags, model.senses.tolist(), model.rhs.tolist(), ptr[:-1], ptr[1:]
    ):
        terms = tuple(sorted((names[c], v) for c, v in zip(cols[start:stop], coefs[start:stop])))
        rows[tag] = (terms, sense, rhs)
    return rows


def round_trip_matches(model: ModelInstance, parsed: ParsedLp) -> bool:
    """True when the parsed document carries exactly the model's objective,
    rows, bounds and binaries."""
    if parsed.canonical_rows() != model_canonical_rows(model):
        return False
    names = _col_names(model)
    obj_cols = np.nonzero(model.objective)[0].tolist()
    bound_cols = _bound_cols(model).tolist()
    return (
        parsed.objective == {names[j]: model.objective[j] for j in obj_cols}
        and parsed.bounds == {names[j]: (model.lower[j], model.upper[j]) for j in bound_cols}
        and set(parsed.binaries) == {names[j] for j in np.nonzero(model.binary)[0].tolist()}
    )
