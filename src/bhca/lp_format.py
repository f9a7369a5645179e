"""CPLEX-LP-format export and a reader of that output for round-trip checks.

The writer is byte-stable for a fixed model: fixed section order
(Maximize / Subject To / Bounds / Binaries / End), constraint names taken
from the row tags, coefficients rendered with ``repr`` so parsing recovers
them exactly, and long rows folded at a fixed width. The Subject To
section is rendered one run of rows at a time (``EXPORT_RUN_TERMS``), so
its working memory is set by the run size, not by the model: the table2
export peaks at about 2.4 times its own text. The run size never changes
the bytes. The reader accepts only the constructs the writer emits.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .model import EQUAL, GREATER, LESS, ModelInstance

_FOLD_WIDTH = 220
# Largest weight of one Subject To run, a row weighing its terms plus one;
# see ``_runs``.
EXPORT_RUN_TERMS = 16_384
_SENSES = (LESS, GREATER, EQUAL)


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _signed(x: float) -> str:
    """A term's coefficient piece ``" + 2 "``; the name follows it."""
    return f" {'+' if x >= 0 else '-'} {_num(abs(x))} "


def _distinct(values: np.ndarray, render) -> np.ndarray:
    """``render(v)`` for every entry of ``values``, called once per distinct
    value, as an object array."""
    # Asking for the index makes np.unique sort stably, which is several
    # times faster on the long runs of equal values that model rows hold.
    distinct, _, inverse = np.unique(values, return_index=True, return_inverse=True)
    return np.array([render(v) for v in distinct.tolist()], dtype=object)[inverse]


def _find(text: str, char: str) -> np.ndarray:
    """Positions of ``char`` in ``text``, counted in characters."""
    # UTF-32 has one code unit per character, so a unit's index is the
    # character's index in the str.
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    return np.flatnonzero(codes == ord(char))


def _interleave(*columns) -> str:
    """``columns[0][0] + columns[1][0] + ... + columns[0][1] + ...`` in one join."""
    pieces = np.empty((len(columns[0]), len(columns)), dtype=object)
    for k, column in enumerate(columns):
        pieces[:, k] = column
    return "".join(pieces.ravel().tolist())


def _fold(text: str, prefix_len: int) -> str:
    """``text``, a prefix and then space-led tokens, broken into lines of at
    most ``_FOLD_WIDTH`` characters.

    Each line takes as many tokens as fit, and at least one; a continuation
    line starts with one more space. Each line is a slice of ``text``.
    """
    # ends[k] is where token k ends, ends[0] where the prefix ends. A token
    # ends where the next one's leading space is.
    starts = _find(text[prefix_len:], " ") + prefix_len
    ends = [prefix_len, *starts[1:].tolist(), len(text)]
    lines, begin, token, limit = [], 0, 0, _FOLD_WIDTH
    while True:
        last = max(bisect.bisect_right(ends, limit) - 1, token + 1)
        if last >= len(ends) - 1:
            lines.append(text[begin:])
            return "\n ".join(lines)
        lines.append(text[begin:ends[last]])
        begin, token, limit = ends[last], last, ends[last] + _FOLD_WIDTH - 1


def _bound_cols(model: ModelInstance) -> np.ndarray:
    """Columns the Bounds section lists: non-binary, not ``[0, inf)``."""
    return np.nonzero(~model.binary & ((model.lower != 0.0) | (model.upper != np.inf)))[0]


def _runs(indptr: np.ndarray):
    """``(r0, r1)`` bounds of consecutive row runs covering every row.

    A row weighs its terms plus one, so runs of empty rows stay bounded too;
    a run weighs at most ``EXPORT_RUN_TERMS`` unless it is one heavier row.
    """
    weight = indptr + np.arange(indptr.size)
    r0, m = 0, indptr.size - 1
    while r0 < m:
        r1 = int(np.searchsorted(weight, weight[r0] + EXPORT_RUN_TERMS, side="right")) - 1
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


def _rows_text(model: ModelInstance, names: np.ndarray) -> list[str]:
    """The Subject To lines, one string per run of rows from ``_runs``. Only
    the run texts outlive their run, so the run size sets the memory."""
    tags = iter(model.tags)
    return [_run_text(model, names, tags, r0, r1) for r0, r1 in _runs(model.indptr)]


def _run_text(model, names, tags, r0: int, r1: int) -> str:
    """Subject To lines of rows ``[r0, r1)``; ``tags`` yields their tags next.

    The run gathers the pieces ``" ", tag, ":", (coefficient, name) x k,
    sense, rhs`` of its rows and joins them, so row ``i`` of the run is line
    ``i`` of the text. The lines wider than ``_FOLD_WIDTH``, found by their
    line ends in the text, are folded after their ``" tag:"`` prefix.
    """
    ptr = model.indptr[r0:r1 + 1]
    a, b = int(ptr[0]), int(ptr[-1])
    starts, stops = ptr[:-1] - a, ptr[1:] - a
    m, nnz, cols = r1 - r0, b - a, model.cols[a:b]
    rows = np.arange(m)
    tags = np.fromiter(itertools.islice(tags, m), dtype=object, count=m)
    coef_txt = _distinct(model.coefs[a:b], _signed)
    sense_txt = _distinct(model.senses[r0:r1], lambda s: f" {s} ")
    rhs_txt = _distinct(model.rhs[r0:r1], lambda v: _num(v) + "\n")

    # Row i fills pieces [5i + 2 starts[i], 5(i + 1) + 2 stops[i]).
    pieces = np.empty(5 * m + 2 * nnz, dtype=object)
    row_at = 5 * rows + 2 * starts
    tail_at = 5 * rows + 2 * stops + 3
    term_at = np.arange(3, 2 * nnz + 3, 2) + 5 * np.repeat(rows, stops - starts)
    pieces[row_at] = " "
    pieces[row_at + 1] = tags
    pieces[row_at + 2] = ":"
    pieces[term_at] = coef_txt
    pieces[term_at + 1] = names[cols]
    pieces[tail_at] = sense_txt
    pieces[tail_at + 1] = rhs_txt
    text = "".join(pieces.tolist())
    del pieces  # before the fold copies slices of the text

    ends = _find(text, "\n")
    if ends.size != m or "\r" in text:
        # Tags are checked here, as they are rendered once; column names
        # were checked before any run.
        _check_one_line("row", tags.tolist())
    begins = np.concatenate([[0], ends[:-1] + 1])
    parts, done = [], 0
    for i in np.flatnonzero(ends - begins > _FOLD_WIDTH).tolist():
        begin, end = int(begins[i]), int(ends[i])
        parts += [text[done:begin], _fold(text[begin:end], len(tags[i]) + 2)]
        done = end
    if not parts:
        return text
    parts.append(text[done:])
    return "".join(parts)


def _check_one_line(kind: str, names: list[str]) -> None:
    """Raise ``ValueError`` naming the first of ``names`` that holds a line
    break: the export ends each line with ``"\\n"``, and readers of text also
    end lines at ``"\\r"``."""
    text = "".join(names)
    if "\n" in text or "\r" in text:
        name = next(n for n in names if "\n" in n or "\r" in n)
        raise ValueError(f"{kind} {name!r} holds a line break; the LP format writes every name on one line")


def _check_writable(model: ModelInstance, names: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first column or row holding a name or
    number the dialect cannot carry: a name holds no line break (``_run_text``
    checks the tags), it has no free or ``-inf`` bound form, a row's sense is
    one of ``<=``, ``>=`` and ``=``, and a coefficient or rhs must be finite."""
    _check_one_line("column", names.tolist())
    bad = ~np.isfinite(model.lower) | ~(model.upper > -np.inf) | ~np.isfinite(model.objective)
    if bad.any():
        j = int(bad.argmax())
        raise ValueError(
            f"column {names[j]} has bounds [{model.lower[j]!r}, {model.upper[j]!r}] and objective "
            f"coefficient {model.objective[j]!r}; the LP format needs a finite lower bound and "
            "finite coefficients"
        )
    bad = ~np.isin(model.senses, _SENSES)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"row {model.tags[i]} has sense {str(model.senses[i])!r}; expected one of {_SENSES}")
    bad = ~np.isfinite(model.rhs)
    bad[np.searchsorted(model.indptr, np.flatnonzero(~np.isfinite(model.coefs)), side="right") - 1] = True
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"row {model.tags[i]} has a coefficient or rhs that is not finite")


def export_lp(model: ModelInstance) -> str:
    """Render the model as CPLEX-LP text; repeated calls are byte-identical."""
    names = np.fromiter(model.catalog.names, dtype=object, count=model.num_cols)
    _check_writable(model, names)
    out = ["\\ Problem: bhca\nMaximize\n"]

    obj_cols = np.nonzero(model.objective)[0]
    obj_txt = _distinct(model.objective[obj_cols], _signed)
    out.append(_fold(" obj:" + _interleave(obj_txt, names[obj_cols]), 5) + "\n")

    out.append("Subject To\n")
    out.extend(_rows_text(model, names))

    out.append("Bounds\n")
    shown = _bound_cols(model)
    lows, highs = model.lower[shown], model.upper[shown]
    finite = highs != np.inf
    before = np.full(shown.size, " ", dtype=object)
    after = np.empty(shown.size, dtype=object)
    before[finite] = _distinct(lows[finite], lambda v: f" {_num(v)} <= ")
    after[finite] = _distinct(highs[finite], lambda v: f" <= {_num(v)}\n")
    after[~finite] = _distinct(lows[~finite], lambda v: f" >= {_num(v)}\n")
    out.append(_interleave(before, names[shown], after))

    binaries = np.nonzero(model.binary)[0]
    if binaries.size:
        out.append("Binaries\n")
        line = _interleave(np.full(binaries.size, " ", dtype=object), names[binaries])
        out.append(_fold(line, 0) + "\n")
    out.append("End\n")
    return "".join(out)


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
    comment. Anything else, and a row name or a bounded variable that
    appears twice, raises ``ValueError``.
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
        sense_pos = next((i for i, t in enumerate(body) if t in _SENSES), None)
        if sense_pos is None or sense_pos != len(body) - 2:
            raise ValueError(f"constraint {name!r} lacks 'expr <sense> rhs' shape")
        if name in constraints:
            raise ValueError(f"constraint {name!r} appears twice")
        terms = _accumulate_terms(body[:sense_pos])
        constraints[name] = (tuple(terms.items()), body[sense_pos], float(body[-1]))

    bounds = {}
    for toks in bounds_lines:
        if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
            name, bound = toks[2], (float(toks[0]), float(toks[4]))
        elif len(toks) == 3 and toks[1] == ">=":
            name, bound = toks[0], (float(toks[2]), float("inf"))
        else:
            raise ValueError(f"unsupported bounds line: {' '.join(toks)!r}")
        if name in bounds:
            raise ValueError(f"bounds of {name!r} appear twice")
        bounds[name] = bound

    return ParsedLp(
        objective=objective,
        constraints=constraints,
        bounds=bounds,
        binaries=tuple(binary_tokens),
    )


def model_canonical_rows(model: ModelInstance):
    """The model's rows in the same comparable shape ParsedLp produces."""
    names = list(model.catalog.names)
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
    names = list(model.catalog.names)
    obj_cols = np.nonzero(model.objective)[0].tolist()
    bound_cols = _bound_cols(model).tolist()
    return (
        parsed.objective == {names[j]: model.objective[j] for j in obj_cols}
        and parsed.bounds == {names[j]: (model.lower[j], model.upper[j]) for j in bound_cols}
        and set(parsed.binaries) == {names[j] for j in np.nonzero(model.binary)[0].tolist()}
    )
