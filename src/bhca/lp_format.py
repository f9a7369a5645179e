"""CPLEX-LP-format export and a reader of that output for round-trip checks.

The writer is byte-stable for a fixed model: fixed section order
(Maximize / Subject To / Bounds / Binaries / End), constraint names taken
from the row tags, coefficients rendered with ``repr`` so parsing recovers
them exactly, and long rows folded at a fixed width. The Subject To
section is rendered one run of rows at a time (``EXPORT_RUN_TERMS``), so
its working memory is set by the run size, not by the model: the table2
export peaks at about 2.4 times its own text. A run joins pieces that are
shared where the data allow: a ``GridNames`` block's tags come from its
head and labels, not built one by one, and a coefficient, sense or rhs
that every row of the run holds is one string. A run is searched for
lines to fold only when its longest pieces could make a line wider than
the fold width. The run size does not change the bytes. The writer
refuses a name the reader would not read back: one holding whitespace or
a ``\\``, a column name that reads as a number, sign, sense or row start,
or a name given twice. One function checks the names, from each block's
head and labels. The reader accepts only the constructs the writer emits.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .model import SENSES, GridNames, ModelInstance, label_product

_FOLD_WIDTH = 220
# Largest weight of one Subject To run, a row weighing its terms plus one;
# see ``_runs``.
EXPORT_RUN_TERMS = 16_384


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _signed(x: float) -> str:
    """A term's coefficient piece ``" + 2 "``; the name follows it."""
    return f" {'+' if x >= 0 else '-'} {_num(abs(x))} "


def _distinct(values: np.ndarray, render):
    """``(texts, width)``: ``render(v)`` for every entry of ``values`` and the
    length of the longest text.

    When every row of ``values`` equals the first, the texts are that row's
    alone: one ``str`` for a 1-D ``values``, an object array of one row's
    texts for a 2-D one. Else ``render`` is called once per distinct value
    and the texts fill an object array of ``values``'s shape.
    """
    # Comparing the last row first is an early out.
    if values.size and values[-1:].tolist() == values[:1].tolist() and (values == values[0]).all():
        texts = [render(v) for v in np.ravel(values[0]).tolist()]
        return (texts[0] if values.ndim == 1 else np.array(texts, dtype=object)), max(map(len, texts))
    # Asking for the index makes np.unique sort stably, which is several
    # times faster on the long runs of equal values that model rows hold.
    distinct, _, inverse = np.unique(values, return_index=True, return_inverse=True)
    texts = [render(v) for v in distinct.tolist()]
    return np.array(texts, dtype=object)[inverse].reshape(values.shape), max(map(len, texts), default=0)


def _widest(names: GridNames) -> int:
    """Length of the longest of ``names``, measured from its heads and
    labels; no name is rendered."""
    return max((len(head) + len(axes) + sum(max(map(len, axis)) for axis in axes)
                for start, stop, head, axes in names.blocks() if stop > start), default=0)


def _find(text: str, char: str) -> np.ndarray:
    """Positions of ``char`` in ``text``, counted in characters."""
    # UTF-32 has one code unit per character, so a unit's index is the
    # character's index in the str.
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    return np.flatnonzero(codes == ord(char))


def _interleave(*columns) -> str:
    """``columns[0][0] + columns[1][0] + ... + columns[0][1] + ...`` in one join;
    a ``str`` column repeats on every line."""
    lines = next(len(column) for column in columns if not isinstance(column, str))
    pieces = np.empty((lines, len(columns)), dtype=object)
    for k, column in enumerate(columns):
        pieces[:, k] = column
    return "".join(pieces.ravel().tolist())


def _fold(text: str, prefix_len: int) -> str:
    """``text``, a prefix and then space-led tokens, broken into lines of at
    most ``_FOLD_WIDTH`` characters.

    Each line takes as many tokens as fit, and at least one; a continuation
    line starts with one more space. Each line is a slice of ``text``.
    """
    # A line ends where a token's leading space is, and the first line holds
    # the token whose space is at prefix_len.
    lines, begin, lo, limit = [], 0, prefix_len + 1, _FOLD_WIDTH
    while len(text) > limit:
        end = text.rfind(" ", lo, limit + 1)
        if end < 0:
            end = text.find(" ", lo)
            if end < 0:
                break
        lines.append(text[begin:end])
        begin, lo, limit = end, end + 1, end + _FOLD_WIDTH - 1
    lines.append(text[begin:])
    return "\n ".join(lines)


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


def _prefixes(tags: GridNames):
    """``(prefix, width)``: ``prefix(r0, r1)`` gives rows ``[r0, r1)`` their
    ``" <tag>:"`` prefixes as two object arrays, a lead and an end, and no
    prefix is longer than ``width``.

    A block ``head`` over ``axes`` leads with ``label_product(" " + head,
    axes[:-1])`` and ends with its last axis's labels and ``":"``, so no
    tag is built.
    """
    leads, ends, at = [], [], []
    for start, stop, head, axes in tags.blocks():
        if stop > start:
            end = [f"_{label}:" for label in axes[-1]] if axes else [":"]
            at.append((start, len(end), len(leads), len(ends)))
            leads += label_product(" " + head, axes[:-1]).tolist()
            ends += end
    width = max(map(len, leads), default=0) + max(map(len, ends), default=0)
    leads, ends, at = np.array(leads, dtype=object), np.array(ends, dtype=object), np.array(at, dtype=np.int64)

    def prefix(r0: int, r1: int):
        rows = np.arange(r0, r1)
        start, period, lead_at, end_at = at[np.searchsorted(at[:, 0], rows, side="right") - 1].T
        lead, end = np.divmod(rows - start, period)
        return leads[lead_at + lead], ends[end_at + end]

    return prefix, width


def _rows_text(model: ModelInstance, names: np.ndarray) -> list[str]:
    """The Subject To lines, one string per run of rows from ``_runs``
    (``_run_text``). Only these texts outlive their rows, so the run size
    sets the memory."""
    prefix, prefix_width = _prefixes(model.tags)
    widths = prefix_width, _widest(model.catalog.names)
    return [_run_text(model, names, prefix(r0, r1), widths, r0, r1) for r0, r1 in _runs(model.indptr)]


def _run_text(model, names, prefix, widths, r0: int, r1: int) -> str:
    """Subject To lines of rows ``[r0, r1)``, whose ``" <tag>:"`` prefixes
    ``prefix`` holds as a lead and an end; ``widths`` bound the length of a
    prefix and of a column name.

    Row ``i`` of the run joins the pieces ``lead, end, (coefficient, name)
    x k, " <sense> ", "<rhs>\\n"`` into line ``i`` of the run's text. A
    piece every row shares is one ``str`` (``_distinct``), and when every
    row has ``k`` terms the pieces fill an ``(m, 4 + 2k)`` grid. A line
    wider than ``_FOLD_WIDTH``, found by its line end in the text, is folded
    after its prefix; the text is searched only when the longest pieces
    could make such a line.
    """
    ptr = model.indptr[r0:r1 + 1]
    a, b = int(ptr[0]), int(ptr[-1])
    terms = ptr[1:] - ptr[:-1]
    m, nnz, k = r1 - r0, b - a, int(terms.max())
    pieces = np.empty(4 * m + 2 * nnz, dtype=object)
    if (terms == k).all():
        target, shape = pieces.reshape(m, 4 + 2 * k), (m, k)
        lead_at, end_at, sense_at, rhs_at = np.s_[:, 0], np.s_[:, 1], np.s_[:, -2], np.s_[:, -1]
        coef_at, name_at = np.s_[:, 2:-2:2], np.s_[:, 3:-2:2]
    else:
        target, shape, rows = pieces, (nnz,), np.arange(m)
        lead_at = 4 * rows + 2 * (ptr[:-1] - a)
        end_at, sense_at, rhs_at = lead_at + 1, lead_at + 2 + 2 * terms, lead_at + 3 + 2 * terms
        coef_at = np.arange(2, 2 * nnz + 2, 2) + 4 * np.repeat(rows, terms)
        name_at = coef_at + 1
    coef_txt, coef_width = _distinct(model.coefs[a:b].reshape(shape), _signed)
    sense_txt, sense_width = _distinct(model.senses[r0:r1], lambda s: f" {SENSES[s]} ")
    rhs_txt, rhs_width = _distinct(model.rhs[r0:r1], lambda v: _num(v) + "\n")
    target[lead_at], target[end_at] = prefix
    target[coef_at] = coef_txt
    target[name_at] = names[model.cols[a:b]].reshape(shape)
    target[sense_at], target[rhs_at] = sense_txt, rhs_txt
    text = "".join(pieces.tolist())
    del pieces, target  # before the fold copies slices of the text

    prefix_width, name_width = widths
    # The widest line these pieces could make, without its line break.
    if prefix_width + k * (coef_width + name_width) + sense_width + rhs_width - 1 <= _FOLD_WIDTH:
        return text
    ends = _find(text, "\n")
    begins = np.concatenate([[0], ends[:-1] + 1])
    parts, done = [], 0
    for i in np.flatnonzero(ends - begins > _FOLD_WIDTH).tolist():
        begin, end = int(begins[i]), int(ends[i])
        parts += [text[done:begin], _fold(text[begin:end], len(prefix[0][i]) + len(prefix[1][i]))]
        done = end
    if not parts:
        return text
    parts.append(text[done:])
    return "".join(parts)


def _holds_whitespace(text: str) -> bool:
    """Whether ``str.split`` cuts ``text``; ``str.splitlines`` cuts only at
    characters ``str.split`` cuts at too."""
    return bool(text) and text.split(maxsplit=1) != [text]


def _flaw(name: str) -> str | None:
    """What in ``name`` ``parse_lp`` would cut at or drop, or None: it reads
    lines with ``str.splitlines``, tokens with ``str.split``, and drops each
    line from its first ``\\`` on."""
    if "\\" in name:
        return "a backslash, which starts a comment"
    if _holds_whitespace(name):
        return "whitespace" if name.splitlines() == [name] else "a line break"
    return None


# A column name starts with one of these if float() may read it (a sign, a
# point, a decimal digit, "i" or "n" for inf and nan) or if it is a sign or
# a sense; see ``_check_names``.
_MISREAD_LEAD = re.compile(r"[-+.<>=\diInN]")


def _misread(name: str) -> str | None:
    """How ``parse_lp`` would misread the column name ``name``, or None."""
    if name in ("+", "-"):
        return "a sign"
    if name in SENSES:
        return "a sense"
    if not name:
        return "nothing"
    if name.endswith(":"):
        return "the start of a row"
    try:
        float(name)
    except ValueError:
        return None
    return "a number"


def _check_names(kind: str, names: GridNames) -> None:
    """Raise ``ValueError`` naming the first of ``names`` holding a ``_flaw``,
    then, for columns, the first ``parse_lp`` would misread (``_misread``),
    then the first that appears twice: ``parse_lp`` refuses a second row or
    bounds line of one name, and merges the terms of a repeated column.

    A name is its block's head, then ``_`` and one label per axis, so a block
    is checked through its head and labels, and its names are rendered only
    to name a bad one or when these cannot prove it sound. A name holds
    whitespace or a ``\\`` only if its head or a label does. It starts with
    its head (with ``_`` after an empty one) and ends with a last-axis label
    (the head, without axes), so only a block whose head is empty or starts
    as a number, sign or sense does, or whose names can end in ``":"``, may
    hold a misread name. Names are distinct when the heads differ and hold
    no ``_``, and each axis's labels differ and hold equally many ``_``:
    split at its ``_``, a name then starts with its head, and each axis's
    label fills the same places in every name of its block.
    """
    blocks = [(head, axes) for start, stop, head, axes in names.blocks() if stop > start]
    if _flaw("".join(head + "".join(itertools.chain.from_iterable(axes)) for head, axes in blocks)):
        name = next(n for n in names if _flaw(n))
        raise ValueError(
            f"{kind} {name!r} holds {_flaw(name)}; the LP format writes every name as one token on "
            "one line, outside any comment"
        )
    for head, axes in blocks if kind == "column" else ():
        ends = axes[-1] if axes else (head,)
        if not head or _MISREAD_LEAD.match(head) or any(end.endswith(":") for end in ends):
            for name in label_product(head, axes).tolist():
                why = _misread(name)
                if why:
                    raise ValueError(f"column {name!r} reads as {why} in the LP format, not as a name")
    heads = [head for head, _ in blocks]
    if (len(set(heads)) == len(heads) and "_" not in "".join(heads)
            and all(len(set(axis)) == len(axis) and len({label.count("_") for label in axis}) <= 1
                    for _, axes in blocks for axis in axes)):
        return
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"{kind} {name!r} appears twice; the LP format names every {kind} once")
        seen.add(name)


def _check_writable(model: ModelInstance, names: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first column or row holding a name or
    number the dialect cannot carry: the column names and then the row tags
    are checked first (``_check_names``); then a column has no free or
    ``-inf`` bound form, a row's sense is a code into ``SENSES``, and a
    coefficient or rhs must be finite."""
    _check_names("column", model.catalog.names)
    _check_names("row", model.tags)
    bad = ~np.isfinite(model.lower) | ~(model.upper > -np.inf) | ~np.isfinite(model.objective)
    if bad.any():
        j = int(bad.argmax())
        raise ValueError(
            f"column {names[j]} has bounds [{model.lower[j]!r}, {model.upper[j]!r}] and objective "
            f"coefficient {model.objective[j]!r}; the LP format needs a finite lower bound and "
            "finite coefficients"
        )
    bad = ~np.isin(model.senses, range(len(SENSES))) | (model.senses.dtype.kind not in "iu")
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"row {model.tags[i]} has sense {model.senses.tolist()[i]!r}; expected a code into {SENSES}")
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
    obj_txt, _ = _distinct(model.objective[obj_cols], _signed)
    out.append(_fold(" obj:" + _interleave(obj_txt, names[obj_cols]), 5) + "\n")

    out.append("Subject To\n")
    out.extend(_rows_text(model, names))

    out.append("Bounds\n")
    shown = _bound_cols(model)
    lows, highs = model.lower[shown], model.upper[shown]
    finite = highs != np.inf
    before = np.full(shown.size, " ", dtype=object)
    after = np.empty(shown.size, dtype=object)
    before[finite], _ = _distinct(lows[finite], lambda v: f" {_num(v)} <= ")
    after[finite], _ = _distinct(highs[finite], lambda v: f" <= {_num(v)}\n")
    after[~finite], _ = _distinct(lows[~finite], lambda v: f" >= {_num(v)}\n")
    out.append(_interleave(before, names[shown], after))

    binaries = np.nonzero(model.binary)[0]
    if binaries.size:
        out.append("Binaries\n")
        line = _interleave(" ", names[binaries])
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
        sense_pos = next((i for i, t in enumerate(body) if t in SENSES), None)
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
        rows[tag] = (terms, SENSES[sense], rhs)
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
