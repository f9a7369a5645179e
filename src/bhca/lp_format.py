"""CPLEX-LP-format export and a matching reader for round-trip checks.

The writer is byte-stable for a fixed model: fixed section order
(Maximize / Subject To / Bounds / Binaries / End), constraint names taken
from the row tags, coefficients rendered with ``repr`` so parsing recovers
them exactly, and long rows folded at a fixed width.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


def export_lp(model: ModelInstance, name: str = "bhca") -> str:
    """Render the model as CPLEX-LP text; repeated calls are byte-identical."""
    names = _col_names(model)
    out = [f"\\ Problem: {name}"]

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
    shown = np.nonzero(~model.binary & ((model.lower != 0.0) | (model.upper != np.inf)))[0]
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
    """Structured view of an LP document, for comparisons and rebuilds."""

    sense: str
    objective: dict[str, float]
    constraints: dict[str, tuple[tuple[tuple[str, float], ...], str, float]]
    bounds: dict[str, tuple[float, float]]
    binaries: tuple[str, ...]
    constraint_order: tuple[str, ...] = field(default=())

    def canonical_rows(self):
        return {
            name: (tuple(sorted(terms)), sense, rhs)
            for name, (terms, sense, rhs) in self.constraints.items()
        }


_SECTION_ALIASES = {
    "maximize": "objective", "maximise": "objective", "max": "objective",
    "minimize": "objective_min", "minimise": "objective_min", "min": "objective_min",
    "subject": "constraints", "st": "constraints", "s.t.": "constraints", "such": "constraints",
    "bounds": "bounds", "bound": "bounds",
    "binaries": "binaries", "binary": "binaries", "bin": "binaries",
    "generals": "generals", "general": "generals", "gen": "generals",
    "end": "end",
}


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
    """Parse the subset of CPLEX-LP documents produced by export_lp."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if line.strip():
            lines.append(line)

    section = None
    sense = "max"
    objective_tokens: list[str] = []
    constraint_chunks: list[list[str]] = []
    bounds_lines: list[str] = []
    binary_tokens: list[str] = []

    for line in lines:
        word = line.strip().split()[0].lower().rstrip(":")
        if word in _SECTION_ALIASES and (line[0] not in " \t" or section is None):
            kind = _SECTION_ALIASES[word]
            if kind == "objective_min":
                sense = "min"
                kind = "objective"
            section = kind
            rest = line.strip().split(None, 1)
            if kind == "constraints" or len(rest) < 2:
                continue
            line = " " + rest[1]
            if kind == "objective":
                objective_tokens.extend(line.split())
                continue
        if section == "objective":
            objective_tokens.extend(line.split())
        elif section == "constraints":
            if line[0] not in " \t" or ":" in line:
                constraint_chunks.append(line.split())
            elif constraint_chunks:
                constraint_chunks[-1].extend(line.split())
            else:
                raise ValueError(f"constraint continuation before any constraint: {line!r}")
        elif section == "bounds":
            bounds_lines.append(line.strip())
        elif section == "binaries":
            binary_tokens.extend(line.split())
        elif section == "end" or section is None:
            if line.strip():
                raise ValueError(f"content outside any section: {line!r}")

    # Objective: strip the label.
    if objective_tokens and objective_tokens[0].endswith(":"):
        objective_tokens = objective_tokens[1:]
    elif objective_tokens and objective_tokens[0] == "obj:":
        objective_tokens = objective_tokens[1:]
    objective = _accumulate_terms(objective_tokens)

    constraints = {}
    order = []
    for chunk in constraint_chunks:
        if not chunk[0].endswith(":"):
            raise ValueError(f"constraint without a name: {' '.join(chunk[:4])} ...")
        name = chunk[0][:-1]
        body = chunk[1:]
        sense_pos = next((i for i, t in enumerate(body) if t in ("<=", ">=", "=", "<", ">")), None)
        if sense_pos is None or sense_pos != len(body) - 2:
            raise ValueError(f"constraint {name!r} lacks 'expr <sense> rhs' shape")
        row_sense = {"<": "<=", ">": ">="}.get(body[sense_pos], body[sense_pos])
        rhs = float(body[-1])
        terms = _accumulate_terms(body[:sense_pos])
        constraints[name] = (tuple(terms.items()), row_sense, rhs)
        order.append(name)

    bounds = {}
    for line in bounds_lines:
        toks = line.split()
        if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            bounds[toks[2]] = (float(toks[0]), float(toks[4]))
        elif len(toks) == 3 and toks[1] == ">=":
            bounds[toks[0]] = (float(toks[2]), float("inf"))
        elif len(toks) == 3 and toks[1] == "<=":
            bounds[toks[0]] = (0.0, float(toks[2]))
        elif len(toks) == 2 and toks[1].lower() == "free":
            bounds[toks[0]] = (float("-inf"), float("inf"))
        else:
            raise ValueError(f"unsupported bounds line: {line!r}")

    return ParsedLp(
        sense=sense,
        objective=objective,
        constraints=constraints,
        bounds=bounds,
        binaries=tuple(binary_tokens),
        constraint_order=tuple(order),
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
    """True when the parsed document carries exactly the model's constraint set."""
    want = model_canonical_rows(model)
    got = parsed.canonical_rows()
    if want != got:
        return False
    cat = model.catalog
    names = {cat.col_name(j): j for j in range(model.num_cols)}
    obj = {name: model.objective[j] for name, j in names.items() if model.objective[j] != 0.0}
    if parsed.objective != obj or parsed.sense != "max":
        return False
    want_bin = {cat.col_name(j) for j in range(model.num_cols) if model.binary[j]}
    return set(parsed.binaries) == want_bin
