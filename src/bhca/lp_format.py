"""CPLEX-LP-format export and a reader of that output for round-trip checks.

The writer is byte-stable for a fixed model: fixed section order
(Maximize / Subject To / Bounds / Binaries / End), constraint names taken
from the row tags, coefficients rendered with ``repr`` so parsing recovers
them exactly, and long rows folded at a fixed width. The Subject To
section is rendered in runs of rows that stay inside one row block
(``EXPORT_RUN_TERMS``), so its working memory is set by the run size,
not by the model: the table2 export peaks at about 2.4 times its own
text. A run joins pieces that are shared where the data allow: a row
block's tags come from its head and labels, not built one by one, and a
coefficient, sense or rhs that every row of the run holds is one string.
A run is searched for lines to fold only when its longest pieces could
make a line wider than the fold width. The run size does not change the
bytes. Names are written as given; the reader accepts only the constructs
the writer emits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SENSES, GridNames, ModelInstance, label_product

_FOLD_WIDTH = 220
# Largest weight of one Subject To run, a row weighing its terms plus one;
# see ``_rows_text``.
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


def _rows_text(model: ModelInstance, names: np.ndarray) -> list[str]:
    """The Subject To lines, one string per run of rows (``_run_text``).

    Each non-empty block of ``model.tags`` is cut into runs that stay inside
    it. A row weighs its terms plus one, so runs of empty rows stay bounded
    too; a run weighs at most ``EXPORT_RUN_TERMS`` unless it is one heavier
    row. Only these texts outlive their rows, so the run size sets the
    memory. Row ``i`` of a block ``head`` over ``axes`` leads with
    ``label_product(" " + head, axes[:-1])[i // p]`` and ends with label
    ``i % p`` of its last axis (``p`` labels) and ``":"``; no tag is built.
    """
    weight = model.indptr + np.arange(model.indptr.size)
    name_width = _widest(model.catalog.names)
    texts = []
    for start, stop, head, axes in model.tags.blocks():
        if stop == start:
            continue
        leads = label_product(" " + head, axes[:-1])
        ends = np.array([f"_{label}:" for label in axes[-1]] if axes else [":"], dtype=object)
        widths = max(map(len, leads.tolist())) + max(map(len, ends.tolist())), name_width
        r0 = start
        while r0 < stop:
            r1 = int(np.searchsorted(weight, weight[r0] + EXPORT_RUN_TERMS, side="right")) - 1
            r1 = min(max(r1, r0 + 1), stop)
            lead, end = np.divmod(np.arange(r0 - start, r1 - start), ends.size)
            texts.append(_run_text(model, names, (leads[lead], ends[end]), widths, r0, r1))
            r0 = r1
    return texts


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


def _check_writable(model: ModelInstance, names: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first column or row holding a bound,
    sense or number the dialect cannot carry: a column has no free or
    ``-inf`` bound form, a row's sense is a code into ``SENSES``, and a
    coefficient or rhs must be finite."""
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
    """Render the model as CPLEX-LP text; repeated calls are byte-identical.

    Column names and row tags are written as given, so each must be one
    token the reader reads back: distinct, free of whitespace and ``\\``,
    and, for a column, not read as a number, sign or sense. The names
    ``build_model`` and ``build_bh_model`` write are literal heads joined to
    integer labels, sound by construction;
    ``tests/test_lp_format.py::test_product_names_are_sound`` proves them so.
    """
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
    document order, each row's terms in document order too; ``bounds``
    holds the Bounds lines as ``(lo, hi)``.
    """

    objective: dict[str, float]
    constraints: dict[str, tuple[tuple[tuple[str, float], ...], str, float]]
    bounds: dict[str, tuple[float, float]]
    binaries: tuple[str, ...]


_SECTIONS = ("Maximize", "Subject To", "Bounds", "Binaries", "End")


def _terms(tokens: list[str], where: str) -> tuple[tuple[str, float], ...]:
    """``tokens`` read as terms ``+ <number> <name>`` or ``- <number> <name>``,
    each name at most once, as ``(name, coefficient)`` in document order."""
    signs, names = tokens[0::3], tokens[2::3]
    try:
        if len(tokens) % 3 or signs.count("+") + signs.count("-") != len(signs):
            raise ValueError
        # The sign joins the number, so a signed number such as "+ -2" is refused.
        coefs = [float(s + v) for s, v in zip(signs, tokens[1::3])]
    except ValueError:
        raise ValueError(f"{where} is not a run of '+ <number> <name>' and '- <number> <name>' terms") from None
    if len(set(names)) != len(names):
        raise ValueError(f"{where} holds a column twice")
    return tuple(zip(names, coefs))


def parse_lp(text: str) -> ParsedLp:
    """Parse an LP document in exactly the form ``export_lp`` writes.

    The sections are ``Maximize``, ``Subject To``, ``Bounds``, ``Binaries``
    and ``End``, each at most once and in that order, each header alone on
    a line at column 0; the document ends at ``End``. Every other line is
    indented, and ``\\`` starts a comment. The objective reads ``obj:``
    then its terms. A row reads ``name:``, then its terms, then a sense
    ``<=``, ``>=`` or ``=``, then the rhs, and may fold onto following
    lines. A term reads ``+ <number> <name>`` or ``- <number> <name>``, the
    number unsigned, and a column appears at most once in the objective and
    once in each row. A bound reads ``lo <= x <= hi`` or ``x >= lo``.
    Anything else, and a row name or a bounded variable that appears twice,
    raises ``ValueError`` naming the row, line or section.
    """
    section, headers = None, _SECTIONS
    objective_tokens: list[str] = []
    constraint_chunks: list[list[str]] = []
    bounds_lines: list[list[str]] = []
    binary_tokens: list[str] = []

    for line in text.splitlines():
        if "\\" in line:
            line = line[:line.index("\\")]
        tokens = line.split()
        if not tokens:
            continue
        if section == "End":
            raise ValueError(f"content after End: {line!r}")
        if not line[0].isspace():
            if line not in headers:
                raise ValueError(f"section header {line!r} is unknown, repeated or out of order")
            headers = headers[headers.index(line) + 1:]
            section = line
            continue
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
    if section != "End":
        raise ValueError("document does not end with an End section")

    if objective_tokens[:1] != ["obj:"]:
        raise ValueError("objective does not start with 'obj:'")
    objective = dict(_terms(objective_tokens[1:], "objective"))

    constraints = {}
    for chunk in constraint_chunks:
        name = chunk[0][:-1]
        where = f"constraint {name!r}"
        try:
            if len(chunk) < 3 or chunk[-2] not in SENSES:
                raise ValueError
            rhs = float(chunk[-1])
        except ValueError:
            raise ValueError(f"{where} does not end in '<sense> <rhs>'") from None
        if name in constraints:
            raise ValueError(f"{where} appears twice")
        constraints[name] = (_terms(chunk[1:-2], where), chunk[-2], rhs)

    bounds = {}
    for toks in bounds_lines:
        try:
            if len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
                name, bound = toks[2], (float(toks[0]), float(toks[4]))
            elif len(toks) == 3 and toks[1] == ">=":
                name, bound = toks[0], (float(toks[2]), float("inf"))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"unsupported bounds line: {' '.join(toks)!r}") from None
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
    """The model's rows in the shape ``ParsedLp.constraints`` holds, each
    row's terms in the order ``export_lp`` writes them."""
    names = list(model.catalog.names)
    cols = [names[c] for c in model.cols.tolist()]
    coefs, ptr = model.coefs.tolist(), model.indptr.tolist()
    return {
        tag: (tuple(zip(cols[start:stop], coefs[start:stop])), SENSES[sense], rhs)
        for tag, sense, rhs, start, stop in zip(
            model.tags, model.senses.tolist(), model.rhs.tolist(), ptr[:-1], ptr[1:]
        )
    }


def round_trip_matches(model: ModelInstance, parsed: ParsedLp) -> bool:
    """True when the parsed document carries exactly the model's objective,
    rows, bounds and binaries, each row's terms and the binaries in the
    order ``export_lp`` writes them."""
    if parsed.constraints != model_canonical_rows(model):
        return False
    names = list(model.catalog.names)
    obj_cols = np.nonzero(model.objective)[0].tolist()
    bound_cols = _bound_cols(model).tolist()
    return (
        parsed.objective == {names[j]: model.objective[j] for j in obj_cols}
        and parsed.bounds == {names[j]: (model.lower[j], model.upper[j]) for j in bound_cols}
        and parsed.binaries == tuple(names[j] for j in np.nonzero(model.binary)[0].tolist())
    )
