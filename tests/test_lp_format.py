import bisect
import dataclasses
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhca import lp_format
from bhca.cli import resolve_config_path
from bhca.lp_format import ParsedLp, export_lp, model_canonical_rows, parse_lp, round_trip_matches
from bhca.baseline import build_bh_model
from bhca.linkbudget import compute_rate_table
from bhca.model import EQUAL, GREATER, LESS, SENSES, GridNames, ModelInstance, RowBuilder
from bhca.scenario import adjacency_pairs, generate_scenario, load_config
from bhca.solver import solve_lp

from conftest import beam3_config, carrier3_config, desk_config, make_bundle, tiny_config

# sha256 of export_lp(build_model) and export_lp(build_bh_model) for the
# shipped configs, pinned from the per-row-object implementation.
GOLDEN = {
    ("desk", 1): (
        "1263e09e75c0ad0617725f1a0c22b6fcb6992872da80c4b5dab71a550dbccbf2",
        "29f97b543dfc45caea3199433b77452948aa73298801ecc52a7753454ef1a65a",
    ),
    ("table2", 7): (
        "702817471c199c468c56d607350d1eb7bbc80eee2b6c3a6d1af88c39d89549a6",
        "95939d2ac839994d386f495b93108f91d83cbf4f97e4ebf09ba20a5b48dde50c",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("config,seed", sorted(GOLDEN))
def test_exports_match_golden(modcod, config, seed):
    cfg = dataclasses.replace(load_config(resolve_config_path(config)), rng_seed=seed)
    scenario, rates, pairs, model = make_bundle(cfg, modcod)
    bh_model = build_bh_model(scenario, rates, pairs)
    lp, bh = GOLDEN[config, seed]
    assert _sha(export_lp(model)) == lp
    assert _sha(export_lp(bh_model)) == bh
    # The export lists binaries by name only; their [0, 1] bounds are implicit.
    for m in (model, bh_model):
        assert np.all(m.lower[m.binary] == 0.0) and np.all(m.upper[m.binary] == 1.0)


def test_export_is_byte_stable(tiny_bundle):
    _, _, _, model = tiny_bundle
    assert export_lp(model) == export_lp(model)


def test_export_sections_in_order(tiny_bundle):
    _, _, _, model = tiny_bundle
    text = export_lp(model)
    positions = [text.index(s) for s in ("Maximize", "Subject To", "Bounds", "Binaries", "End")]
    assert positions == sorted(positions)


def test_variable_naming_convention(tiny_bundle):
    _, _, _, model = tiny_bundle
    text = export_lp(model)
    for name in ("a_1_1_1", "beta_2_2_2", "q_1_2_1_2", "z_2_2", "tU_1", "tL", "theta"):
        assert name in text


def test_round_trip_on_five_fixture_models(modcod):
    for seed in range(1, 6):
        _, _, _, model = make_bundle(tiny_config(seed), modcod)
        parsed = parse_lp(export_lp(model))
        assert round_trip_matches(model, parsed), f"seed {seed}"
        assert list(parsed.constraints) == list(model.tags)


def test_single_binary_model_binaries_section(modcod):
    # Baseline model on a single-slot scenario keeps exactly L binaries; cut
    # to one cluster pattern and check the single-binary rendering.
    scenario = generate_scenario(tiny_config(3, slots_per_window=1))
    rates = compute_rate_table(scenario, modcod)
    model = build_bh_model(scenario, rates, adjacency_pairs(scenario))
    text = export_lp(model)
    parsed = parse_lp(text)
    assert parsed.binaries == ("z_1_1", "z_2_1")
    assert "Binaries" in text


def test_parsed_numbers_round_trip_exactly(tiny_bundle):
    _, _, _, model = tiny_bundle
    parsed = parse_lp(export_lp(model))
    rows = model_canonical_rows(model)
    for name, (terms, sense, rhs) in parsed.canonical_rows().items():
        want_terms, want_sense, want_rhs = rows[name]
        assert terms == want_terms
        assert sense == want_sense
        assert rhs == want_rhs


def test_parser_handles_folded_lines():
    text = (
        "Maximize\n"
        " obj: + 1 x\n"
        "Subject To\n"
        " wide: + 1 x + 2 y\n"
        "  + 3 z <= 4\n"
        "Bounds\n"
        " 0 <= y <= 2\n"
        " x >= 1\n"
        "Binaries\n"
        " z\n"
        "End\n"
    )
    parsed = parse_lp(text)
    assert parsed.constraints["wide"] == ((("x", 1.0), ("y", 2.0), ("z", 3.0)), "<=", 4.0)
    assert parsed.bounds["y"] == (0.0, 2.0)
    assert parsed.bounds["x"] == (1.0, float("inf"))
    assert parsed.binaries == ("z",)


def test_parser_rejects_malformed_rows():
    with pytest.raises(ValueError):
        parse_lp("Maximize\n obj: x\nSubject To\n r1: + 1 x 4\nEnd\n")
    with pytest.raises(ValueError):
        parse_lp("Maximize\n obj: + 2 + 3 x\nSubject To\nEnd\n")


@pytest.mark.parametrize("doc", [
    "Minimize\n obj: + 1 x\nEnd\n",
    "Maximize\n obj: + 1 x\nGenerals\n x\nEnd\n",
    "Maximize obj: + 1 x\nEnd\n",
    "maximize\n obj: + 1 x\nEnd\n",
    "Maximize\n obj: + 1 x\nST\n r: + 1 x <= 1\nEnd\n",
    "Maximize\n obj: + 1 x\nSubject To\n r: + 1 x < 1\nEnd\n",
    "Maximize\n obj: + 1 x\nBounds\n x <= 3\nEnd\n",
    "Maximize\n obj: + 1 x\nBounds\n x free\nEnd\n",
    " obj: + 1 x\nEnd\n",
], ids=["minimize", "generals", "header-with-content", "lowercase-header", "st-alias",
        "strict-less", "upper-only-bound", "free-bound", "content-before-header"])
def test_parser_reads_only_the_export_dialect(doc):
    with pytest.raises(ValueError):
        parse_lp(doc)


@pytest.mark.parametrize("row, message", [
    (" r: x 2 3 <= 1", "two consecutive numbers near '3'"),
    (" r: 2 + x <= 1", "dangling coefficient before '+'"),
    (" r: x + 2 <= 1", "expression ends with a dangling coefficient"),
    (" x <= 1", "constraint continuation before any constraint"),
], ids=["two-numbers", "coefficient-before-sign", "coefficient-at-end", "no-row-name"])
def test_parser_names_a_malformed_row(row, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_lp(f"Maximize\n obj: + 1 x\nSubject To\n{row}\nEnd\n")


def test_parsed_lp_fields():
    names = [f.name for f in dataclasses.fields(ParsedLp)]
    assert names == ["objective", "constraints", "bounds", "binaries"]


def test_round_trip_compares_bounds(tiny_bundle):
    _, _, _, model = tiny_bundle
    text = export_lp(model)
    assert " 0 <= beta_1_1_1 <= 1\n" in text
    widened = text.replace(" 0 <= beta_1_1_1 <= 1\n", " 0 <= beta_1_1_1 <= 7\n")
    assert not round_trip_matches(model, parse_lp(widened))
    no_beta = "".join(line for line in text.splitlines(keepends=True)
                      if not line.startswith(" 0 <= beta_"))
    assert not round_trip_matches(model, parse_lp(no_beta))
    assert round_trip_matches(model, parse_lp(text))


def test_round_trip_compares_coefficients(modcod):
    _, _, _, model = make_bundle(tiny_config(1), modcod)
    text = export_lp(model)
    row = " C2_l1_c1: + 1 beta_1_1_1 + 1 beta_1_1_2 <= 1\n"
    assert row in text
    assert round_trip_matches(model, parse_lp(text))
    changed = text.replace(row, row.replace("+ 1 beta_1_1_1", "+ 2 beta_1_1_1"))
    assert not round_trip_matches(model, parse_lp(changed))


def test_export_mentions_constraint_tags(tiny_bundle):
    _, _, _, model = tiny_bundle
    text = export_lp(model)
    for tag in ("C1_l1_u1", "C4_l2_u2", "C7b_l1_c1_u1", "C8b", "C9d_l2_c2_u2_t2"):
        assert f" {tag}:" in text


class _Columns:
    """Catalog stand-in whose columns carry the given names, one block each."""

    def __init__(self, names):
        self.names = GridNames([(name, ()) for name in names])


def _edge_model():
    n = 30
    first14 = tuple(range(14))
    rows = RowBuilder()
    rows.add("exactly_220_chars", (), first14, 1.0, LESS, 1.0)
    rows.add("one_wider_than_220", (), first14, 1.0, LESS, 1.0)
    rows.add("empty", (), [], 1.0, GREATER, -0.0)
    rows.add("mixed", (), [0, 1, 2, 3, 4], [-2.5, 1e15, -0.0, 3.0, 0.1], EQUAL, 1e16)  # -0.0 is not stored
    rows.add("negative", (), [5], -1.0, GREATER, -7.25)
    rows.add("long", (), np.arange(n), -0.001 * (np.arange(n) + 1), LESS, 2.0**60)
    rows.add("continued", (), np.arange(n), 1.0, LESS, 1.0)
    rows.add("two_full_row", (), np.arange(n), 0.25, LESS, 1.0)
    lower, upper = np.zeros(n), np.ones(n)
    lower[25:], upper[25:] = [-5.0, 1.0, 0.0, 0.0, 0.0], [2.5, np.inf, 1e15, 1.0, np.inf]
    return ModelInstance(
        catalog=_Columns(f"x{j:08d}" for j in range(n)), **rows.arrays(), objective=(np.arange(n) - 10) * 0.5,
        lower=lower, upper=upper, binary=np.arange(n) < 25,
    )


_TERMS14 = "".join(f" + 1 x{j:08d}" for j in range(14))

# export_lp of _edge_model, pinned from the per-row implementation. Rows,
# the objective and Binaries fold at 220 characters; numbers of 1e15 and
# more are written with repr, -0.0 as 0. A zero coefficient is not stored,
# so "mixed" has no x00000002 term.
EDGE_EXPORT = "\n".join([
    "\\ Problem: bhca",
    "Maximize",
    " obj: - 5 x00000000 - 4.5 x00000001 - 4 x00000002 - 3.5 x00000003 - 3 x00000004 - 2.5 x00000005"
    " - 2 x00000006 - 1.5 x00000007 - 1 x00000008 - 0.5 x00000009 + 0.5 x00000011 + 1 x00000012"
    " + 1.5 x00000013 + 2 x00000014 +",
    "  2.5 x00000015 + 3 x00000016 + 3.5 x00000017 + 4 x00000018 + 4.5 x00000019 + 5 x00000020"
    " + 5.5 x00000021 + 6 x00000022 + 6.5 x00000023 + 7 x00000024 + 7.5 x00000025 + 8 x00000026"
    " + 8.5 x00000027 + 9 x00000028 + 9.5",
    "  x00000029",
    "Subject To",
    f" exactly_220_chars:{_TERMS14} <= 1",
    f" one_wider_than_220:{_TERMS14} <=",
    "  1",
    " empty: >= 0",
    " mixed: - 2.5 x00000000 + 1000000000000000.0 x00000001 + 3 x00000003 + 0.1 x00000004 = 1e+16",
    " negative: - 1 x00000005 >= -7.25",
    " long: - 0.001 x00000000 - 0.002 x00000001 - 0.003 x00000002 - 0.004 x00000003 - 0.005 x00000004"
    " - 0.006 x00000005 - 0.007 x00000006 - 0.008 x00000007 - 0.009000000000000001 x00000008"
    " - 0.01 x00000009 - 0.011 x00000010 -",
    "  0.012 x00000011 - 0.013000000000000001 x00000012 - 0.014 x00000013 - 0.015 x00000014"
    " - 0.016 x00000015 - 0.017 x00000016 - 0.018000000000000002 x00000017 - 0.019 x00000018"
    " - 0.02 x00000019 - 0.021 x00000020 - 0.022",
    "  x00000021 - 0.023 x00000022 - 0.024 x00000023 - 0.025 x00000024 - 0.026000000000000002 x00000025"
    " - 0.027 x00000026 - 0.028 x00000027 - 0.029 x00000028 - 0.03 x00000029 <= 1.152921504606847e+18",
    " continued:" + "".join(f" + 1 x{j:08d}" for j in range(14)) + " + 1",
    " " + "".join(f" x{j:08d} + 1" for j in range(14, 29)),
    "  x00000029 <= 1",
    " two_full_row:" + "".join(f" + 0.25 x{j:08d}" for j in range(12)) + " +",
    "  0.25 x00000012" + "".join(f" + 0.25 x{j:08d}" for j in range(13, 25)),
    " " + "".join(f" + 0.25 x{j:08d}" for j in range(25, 30)) + " <= 1",
    "Bounds",
    " -5 <= x00000025 <= 2.5",
    " x00000026 >= 1",
    " 0 <= x00000027 <= 1000000000000000.0",
    " 0 <= x00000028 <= 1",
    "Binaries",
    "".join(f" x{j:08d}" for j in range(22)),
    "  x00000022 x00000023 x00000024",
    "End",
    "",
])


def test_fold_and_shape_edge_cases():
    model = _edge_model()
    text = export_lp(model)
    assert text == EDGE_EXPORT
    lines = text.splitlines()
    at = {line.split(":")[0].strip(): i for i, line in enumerate(lines)}
    assert len(lines[at["exactly_220_chars"]]) == 220
    assert [len(line) for line in lines[at["one_wider_than_220"]:][:2]] == [219, 3]
    # A continuation line may be exactly 220 wide (two_full_row); the second
    # line of "continued" stops at 211 because the next token would make 221.
    assert [len(line) for line in lines[at["two_full_row"]:][:3]] == [220, 220, 91]
    assert [len(line) for line in lines[at["continued"]:][:3]] == [211, 211, 16]
    assert max(len(line) for line in lines) == 220
    assert round_trip_matches(model, parse_lp(text))


def _reference_fold(text: str, prefix_len: int) -> str:
    """The fold as it was written before ``str.rfind``: one ``bisect_right``
    over the token ends per output line."""
    # ends[k] is where token k ends, ends[0] where the prefix ends. A token
    # ends where the next one's leading space is.
    starts = lp_format._find(text[prefix_len:], " ") + prefix_len
    ends = [prefix_len, *starts[1:].tolist(), len(text)]
    lines, begin, token, limit = [], 0, 0, lp_format._FOLD_WIDTH
    while True:
        last = max(bisect.bisect_right(ends, limit) - 1, token + 1)
        if last >= len(ends) - 1:
            lines.append(text[begin:])
            return "\n ".join(lines)
        lines.append(text[begin:ends[last]])
        begin, token, limit = ends[last], last, ends[last] + lp_format._FOLD_WIDTH - 1


# Characters of one, two and four UTF-8 bytes, one outside the Basic
# Multilingual Plane; none is whitespace.
_WORD = st.one_of(st.text(alphabet="x+-.:1é𝛽", min_size=1, max_size=24),
                  st.text(alphabet="x+-.:1é𝛽", min_size=215, max_size=240))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(prefix_len=st.integers(min_value=0, max_value=300), tokens=st.lists(_WORD, max_size=60),
       pad=st.sampled_from("a𝛽"))
def test_fold_matches_the_bisect_fold(prefix_len, tokens, pad):
    # A prefix of prefix_len characters led by a space, as " tag:" is, then
    # space-led tokens: some texts fit in one line, some hold a token wider
    # than a line.
    prefix = (" " + pad * prefix_len)[:prefix_len]
    text = prefix + "".join(" " + token for token in tokens)
    assert lp_format._fold(text, prefix_len) == _reference_fold(text, prefix_len)


def _non_ascii_model():
    """Non-ASCII row tags and column names, one of them outside the Basic
    Multilingual Plane, in rows that fold and rows between them."""
    n = 24
    names = [f"β{j:02d}" if j % 2 else f"𝛽{j:02d}_ü" for j in range(n)]
    rows = RowBuilder()
    rows.add("ratio_é", (), [0, 1], [1.0, -2.0], LESS, 1.0)
    rows.add("Σ_wide", (), np.arange(n), 0.5, GREATER, 0.0)
    rows.add("plain", (), [2], 1.0, EQUAL, 0.5)
    rows.add("𝛽_wide_too", (), np.arange(n), -1.25 - np.arange(n), LESS, 3.0)
    rows.add("last_ö", (), [n - 1], 2.0, LESS, 4.0)
    lower, upper = np.zeros(n), np.ones(n)
    upper[20:] = [2.0, np.inf, 7.5, np.inf]
    lower[21] = -1.0
    return ModelInstance(
        catalog=_Columns(names), **rows.arrays(), objective=np.linspace(-3.0, 3.0, n),
        lower=lower, upper=upper, binary=np.arange(n) < 20,
    )


# export_lp of _non_ascii_model, pinned from the implementation that summed
# piece lengths; widths count characters, not bytes.
NON_ASCII_EXPORT = "\n".join([
    "\\ Problem: bhca",
    "Maximize",
    " obj: - 3 𝛽00_ü - 2.739130434782609 β01 - 2.4782608695652173 𝛽02_ü - 2.217391304347826"
    " β03 - 1.9565217391304348 𝛽04_ü - 1.6956521739130435 β05 - 1.4347826086956523 𝛽06_ü -"
    " 1.173913043478261 β07 - 0.9130434782608696 𝛽08_ü",
    "  - 0.6521739130434785 β09 - 0.3913043478260869 𝛽10_ü - 0.1304347826086958 β11 +"
    " 0.13043478260869534 𝛽12_ü + 0.3913043478260869 β13 + 0.652173913043478 𝛽14_ü +"
    " 0.9130434782608696 β15 + 1.1739130434782608 𝛽16_ü +",
    "  1.4347826086956523 β17 + 1.695652173913043 𝛽18_ü + 1.9565217391304346 β19 +"
    " 2.217391304347826 𝛽20_ü + 2.478260869565217 β21 + 2.7391304347826084 𝛽22_ü + 3 β23",
    "Subject To",
    " ratio_é: + 1 𝛽00_ü - 2 β01 <= 1",
    " Σ_wide: + 0.5 𝛽00_ü + 0.5 β01 + 0.5 𝛽02_ü + 0.5 β03 + 0.5 𝛽04_ü + 0.5 β05 + 0.5 𝛽06_ü"
    " + 0.5 β07 + 0.5 𝛽08_ü + 0.5 β09 + 0.5 𝛽10_ü + 0.5 β11 + 0.5 𝛽12_ü + 0.5 β13 + 0.5"
    " 𝛽14_ü + 0.5 β15 + 0.5 𝛽16_ü + 0.5 β17 + 0.5 𝛽18_ü +",
    "  0.5 β19 + 0.5 𝛽20_ü + 0.5 β21 + 0.5 𝛽22_ü + 0.5 β23 >= 0",
    " plain: + 1 𝛽02_ü = 0.5",
    " 𝛽_wide_too: - 1.25 𝛽00_ü - 2.25 β01 - 3.25 𝛽02_ü - 4.25 β03 - 5.25 𝛽04_ü - 6.25 β05 -"
    " 7.25 𝛽06_ü - 8.25 β07 - 9.25 𝛽08_ü - 10.25 β09 - 11.25 𝛽10_ü - 12.25 β11 - 13.25 𝛽12_ü"
    " - 14.25 β13 - 15.25 𝛽14_ü - 16.25 β15 - 17.25",
    "  𝛽16_ü - 18.25 β17 - 19.25 𝛽18_ü - 20.25 β19 - 21.25 𝛽20_ü - 22.25 β21 - 23.25 𝛽22_ü -"
    " 24.25 β23 <= 3",
    " last_ö: + 2 β23 <= 4",
    "Bounds",
    " 0 <= 𝛽20_ü <= 2",
    " β21 >= -1",
    " 0 <= 𝛽22_ü <= 7.5",
    "Binaries",
    " 𝛽00_ü β01 𝛽02_ü β03 𝛽04_ü β05 𝛽06_ü β07 𝛽08_ü β09 𝛽10_ü β11 𝛽12_ü β13 𝛽14_ü β15 𝛽16_ü"
    " β17 𝛽18_ü β19",
    "End",
    "",
])


def test_non_ascii_names_fold_by_characters():
    model = _non_ascii_model()
    text = export_lp(model)
    assert text == NON_ASCII_EXPORT
    assert max(len(line) for line in text.splitlines()) == 220
    assert round_trip_matches(model, parse_lp(text))


def test_a_token_wider_than_a_line_gets_a_line_of_its_own():
    wide = "w" * 230
    rows = RowBuilder()
    rows.add("wide", (), [0, 1], 1.0, LESS, 1.0)
    model = ModelInstance(
        catalog=_Columns([wide, "x"]), **rows.arrays(),
        objective=np.ones(2), lower=np.zeros(2), upper=np.ones(2), binary=np.ones(2, dtype=bool),
    )
    assert export_lp(model) == "\n".join([
        "\\ Problem: bhca", "Maximize", " obj: + 1", f"  {wide}", "  + 1 x",
        "Subject To", " wide: + 1", f"  {wide}", "  + 1 x <= 1",
        "Bounds", "Binaries", f" {wide}", "  x", "End", "",
    ])


def test_model_without_rows_exports_empty_sections():
    model = ModelInstance(
        catalog=_Columns(["u", "v"]), **RowBuilder().arrays(), objective=np.zeros(2),
        lower=np.array([0.0, -1.5]), upper=np.full(2, np.inf), binary=np.zeros(2, dtype=bool),
    )
    text = export_lp(model)
    assert text == "\\ Problem: bhca\nMaximize\n obj:\nSubject To\nBounds\n v >= -1.5\nEnd\n"
    assert round_trip_matches(model, parse_lp(text))


def _run_edge_model():
    """Empty first and last rows; each 30-term row folds and sits between
    short rows, so small runs start and end at folded rows."""
    n = 30
    sizes = (0, 2, 30, 1, 3, 30, 30, 2, 0)
    rows = RowBuilder()
    for i, k in enumerate(sizes):
        rows.add(f"r{i}", (), np.arange(k), 0.5, (LESS, GREATER, EQUAL)[i % 3], float(i))
    return ModelInstance(
        catalog=_Columns(f"x{j:08d}" for j in range(n)), **rows.arrays(), objective=np.ones(n),
        lower=np.zeros(n), upper=np.ones(n), binary=np.ones(n, dtype=bool),
    )


@pytest.fixture(scope="module")
def desk_seed1_models(modcod):
    cfg = dataclasses.replace(load_config(resolve_config_path("desk")), rng_seed=1)
    scenario, rates, pairs, model = make_bundle(cfg, modcod)
    return model, build_bh_model(scenario, rates, pairs)


@pytest.mark.parametrize("run_terms", [1, 2, 5, 40])
def test_run_size_never_changes_the_bytes(monkeypatch, desk_seed1_models, run_terms):
    models = [_edge_model(), _run_edge_model(), *desk_seed1_models]
    want = [export_lp(m) for m in models]
    assert "\n  " in want[1]
    monkeypatch.setattr(lp_format, "EXPORT_RUN_TERMS", run_terms)
    model = desk_seed1_models[0]
    names = np.fromiter(model.catalog.names, dtype=object, count=model.num_cols)
    blocks = sum(stop > start for start, stop, _, _ in model.tags.blocks())
    assert len(lp_format._rows_text(model, names)) > blocks  # the weight cut splits a block
    assert [export_lp(m) for m in models] == want


def _block_model():
    """A ``RowBuilder`` model of uniform blocks, blocks that are not quite
    uniform, and blocks that are empty, wide or without axes, over non-ASCII
    column names of four characters, some outside the Basic Multilingual Plane."""
    n = 24
    names = [f"{'xβ𝛽'[j % 3]}{j:03d}" for j in range(n)]
    grid = np.arange(n).reshape(2, 3, 4)
    ls, cs, ts = ("1", "2"), ("é", "𝛽", "c"), ("1", "2", "3", "4")
    rows = RowBuilder()
    rows.add("A", (ls, cs, ts), grid[..., None], 1.0, GREATER, 0.0)
    rows.add("B", (ls, cs, ts), np.stack([grid, np.broadcast_to(grid[::-1, :1], grid.shape)], -1),
             [1.0, -1.0], LESS, 0.0)
    rows.add("Cé", (ls, cs, ts), np.stack([grid, grid[::-1], (grid + 1) % n], -1),
             [0.1, -1e15, 2.5], EQUAL, -7.25)
    rows.add("E", (ls, cs), np.zeros((2, 3, 0), dtype=np.int64), 1.0, LESS, 1.0)
    rows.add("Z", (("z z",), ()), np.zeros((1, 0, 1), dtype=np.int64), 1.0, LESS, 1.0)
    rows.add("N", (), [0, n - 1], [2.0, -0.5], GREATER, 1e16)
    rows.add("W" * 193, (ls,), grid[:, :2, 0], 1.0, LESS, 1.0)   # widest row: 220 characters
    rows.add("V" * 194, (ls,), grid[:, :2, 0], 1.0, LESS, 1.0)   # 221: folds
    rows.add("Y" * 300, (ls, ts), grid[0, :, :].T[None], -1.0, LESS, 3.0)
    coefs = np.ones((2, 3, 4, 2))
    coefs[1, 2, 3, 1] = 0.0
    rows.add("L", (ls, cs, ts), np.stack([grid, (grid + 1) % n], -1), coefs, LESS, 1.0)  # one row lost a term
    coefs[1, 2, 3, 1] = 2.0
    rows.add("K", (ls, cs, ts), np.stack([grid, grid + 1], -1) % n, coefs, LESS, 1.0)
    senses = np.full((2, 3, 4), LESS)
    senses[0, 1, 2] = GREATER
    rows.add("S", (ls, cs, ts), np.stack([grid, grid + 1], -1) % n, 1.0, senses, 1.0)
    rhs = np.ones((2, 3, 4))
    rhs[1, 0, 0] = 1.5
    rows.add("R", (ls, cs, ts), np.stack([grid, grid + 1], -1) % n, 1.0, LESS, rhs)
    lower, upper = np.zeros(n), np.ones(n)
    upper[20:] = [2.0, np.inf, 7.5, np.inf]
    return ModelInstance(
        catalog=_Columns(names), **rows.arrays(), objective=np.linspace(-3.0, 3.0, n),
        lower=lower, upper=upper, binary=np.arange(n) < 20,
    )


@pytest.mark.parametrize("run_terms", [1, 3, 8, 40])
def test_templated_blocks_match_the_run_path(monkeypatch, run_terms):
    # Uniform blocks, blocks that are nearly so and runs that split a block
    # give the bytes of the export written as one run.
    model = _block_model()
    monkeypatch.setattr(lp_format, "EXPORT_RUN_TERMS", 10**9)
    want = export_lp(model)
    monkeypatch.setattr(lp_format, "EXPORT_RUN_TERMS", run_terms)
    assert export_lp(model) == want
    lines = want.splitlines()
    assert [len(line) for line in lines if line.startswith(" W")] == [220, 220]
    assert [line.endswith(" <=") for line in lines if line.startswith(" V")] == [True, True]
    assert " E_1_é: <= 1" in lines and " N: + 2 x000 - 0.5 𝛽023 >= 1e+16" in lines
    assert round_trip_matches(model, parse_lp(want))


def test_each_run_stays_inside_one_row_block(monkeypatch):
    # However large a run may be, it holds the rows of one tag block: one
    # text per non-empty block, in block order, joined into Subject To.
    model = _block_model()
    monkeypatch.setattr(lp_format, "EXPORT_RUN_TERMS", 10**9)
    names = np.fromiter(model.catalog.names, dtype=object, count=model.num_cols)
    texts = lp_format._rows_text(model, names)
    tags = [[line[1:line.index(":")] for line in text.splitlines() if not line.startswith("  ")]
            for text in texts]
    assert tags == [[model.tags[i] for i in range(start, stop)]
                    for start, stop, _, _ in model.tags.blocks() if stop > start]
    text = export_lp(model)
    assert "".join(texts) == text[text.index("Subject To\n") + len("Subject To\n"):text.index("Bounds\n")]


def test_grid_names_catalog_folds_like_its_list():
    # The fold scan is skipped only when the longest names could not make a
    # line wider than 220; a catalog is measured from its heads and labels,
    # here once as one block over an axis and once as its names listed one
    # block each. The row is 221 characters wide, so it must fold either way.
    names = GridNames([("x", (tuple(f"{j:02d}" for j in range(24)),))])
    rows = RowBuilder()
    rows.add("t" * 16, (), np.arange(22), 1.0, LESS, 1.0)
    catalog = _Columns(names)
    model = ModelInstance(
        catalog=catalog, **rows.arrays(), objective=np.ones(24), lower=np.zeros(24), upper=np.ones(24),
        binary=np.zeros(24, dtype=bool),
    )
    listed = export_lp(model)
    lines = listed.splitlines()
    at = lines.index("Subject To") + 1
    assert [len(line) for line in lines[at:at + 2]] == [219, 3]
    catalog.names = names
    assert export_lp(model) == listed


def test_export_memory_stays_near_its_text(modcod):
    # Rendering the whole Subject To section in one gather peaked at 6.5
    # times the text on this model; runs of rows bring it to about 2.4.
    cfg = dataclasses.replace(load_config(resolve_config_path("table2")), rng_seed=7)
    _, _, _, model = make_bundle(cfg, modcod)
    tracemalloc.start()
    try:
        ratio = tracemalloc.get_traced_memory()[1] / len(export_lp(model))
    finally:
        tracemalloc.stop()
    assert ratio <= 2.5


def _two_column_model(lower=(0.0, 0.0), upper=(np.inf, 1.0), objective=(1.0, 1.0), coef=1.0, rhs=1.0,
                      sense=LESS):
    rows = RowBuilder()
    rows.add("r1", (), [0, 1], [1.0, coef], LESS, rhs)
    # RowBuilder refuses an unknown sense, so the row's sense is set in the
    # model's senses array: export_lp's own check is what meets it.
    return ModelInstance(
        catalog=_Columns(("u", "v")), **{**rows.arrays(), "senses": np.array([sense])},
        objective=np.array(objective), lower=np.array(lower), upper=np.array(upper),
        binary=np.zeros(2, dtype=bool),
    )


@pytest.mark.parametrize("change, match", [
    (dict(lower=(-np.inf, 0.0)), "column u "),
    (dict(upper=(np.inf, np.nan)), "column v "),
    (dict(upper=(-np.inf, 1.0)), "column u "),
    (dict(objective=(1.0, np.inf)), "column v "),
    (dict(coef=np.nan), "row r1 "),
    (dict(rhs=np.inf), "row r1 "),
    (dict(sense="=<"), "row r1 has sense '=<'"),
], ids=["free-lower", "nan-upper", "minus-inf-upper", "inf-objective", "nan-coef", "inf-rhs", "unknown-sense"])
def test_export_names_what_the_format_cannot_carry(change, match):
    # These used to raise OverflowError or "cannot convert float NaN to integer".
    with pytest.raises(ValueError, match=match):
        export_lp(_two_column_model(**change))


def test_names_that_only_look_like_numbers_round_trip():
    names = ["e", "1e", "E5x", "inf_1", "infinit", "nan1", "n", "i", "+x", "-1x", ".x", "1_", "_1",
             "1__0", "x:y", ":x", "<", "=>", "x1"]
    rows = RowBuilder()
    rows.add("r", (), np.arange(len(names)), 1.0, LESS, 1.0)
    model = ModelInstance(
        catalog=_Columns(names), **rows.arrays(),
        objective=np.ones(len(names)), lower=np.zeros(len(names)), upper=np.full(len(names), 2.0),
        binary=np.zeros(len(names), dtype=bool),
    )
    assert round_trip_matches(model, parse_lp(export_lp(model)))


@pytest.fixture(scope="module")
def table2_seed7_models(modcod):
    cfg = dataclasses.replace(load_config(resolve_config_path("table2")), rng_seed=7)
    scenario, rates, pairs, model = make_bundle(cfg, modcod)
    return model, build_bh_model(scenario, rates, pairs)


def _reads_as_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def test_product_names_are_sound(modcod, desk_seed1_models, table2_seed7_models):
    # export_lp writes names as given; every name build_model and
    # build_bh_model write is a literal head joined to integer labels, so
    # each is one distinct token that parse_lp reads back as that name.
    models = {"desk-1": desk_seed1_models, "table2-7": table2_seed7_models}
    for shape in (tiny_config, desk_config, beam3_config, carrier3_config):
        scenario, rates, pairs, model = make_bundle(shape(), modcod)
        models[shape.__name__] = model, build_bh_model(scenario, rates, pairs)
    for config, pair in models.items():
        for scheme, model in zip(("joint", "bh"), pair):
            where = f"{config} {scheme}"
            columns = list(model.catalog.names)
            for names in (columns, list(model.tags)):
                assert len(set(names)) == len(names), where
                # str.split drops an empty name and cuts at whitespace and at
                # every line break str.splitlines cuts at.
                assert " ".join(names).split() == names, where
                assert "\\" not in "".join(names), where
            misread = [name for name in columns
                       if name in ("+", "-", *SENSES) or name.endswith(":") or _reads_as_number(name)]
            assert not misread, where


def test_parser_rejects_a_repeated_row(tiny_bundle):
    # Before, the later row replaced the first in ParsedLp.constraints, so
    # round_trip_matches accepted an export with an extra or changed copy.
    _, _, _, model = tiny_bundle
    text = export_lp(model)
    first_row = text.splitlines()[4]
    assert first_row.startswith(" C1_l1_u1:")
    changed = first_row.rsplit(" ", 1)[0] + " 0"
    for row in (first_row, changed):
        with pytest.raises(ValueError, match="'C1_l1_u1' appears twice"):
            parse_lp(text.replace("Bounds\n", f"{row}\nBounds\n"))


@pytest.mark.parametrize("bounds", [
    " 0 <= x <= 1\n 0 <= x <= 2\n",
    " x >= 1\n 0 <= x <= 2\n",
], ids=["same-form", "both-forms"])
def test_parser_rejects_repeated_bounds(bounds):
    with pytest.raises(ValueError, match="bounds of 'x' appear twice"):
        parse_lp(f"Maximize\n obj: + 1 x\nBounds\n{bounds}End\n")


def _linprog_relaxation(text: str) -> float:
    """Optimum of the LP relaxation of an exported document, solved by HiGHS
    from nothing but the parsed text."""
    optimize = pytest.importorskip("scipy.optimize")
    parsed = parse_lp(text)
    names = list(dict.fromkeys([
        *parsed.objective,
        *(name for terms, _, _ in parsed.constraints.values() for name, _ in terms),
        *parsed.bounds,
        *parsed.binaries,
    ]))
    index = {name: j for j, name in enumerate(names)}
    c = np.zeros(len(names))
    for name, v in parsed.objective.items():
        c[index[name]] = v
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for terms, sense, rhs in parsed.constraints.values():
        row = np.zeros(len(names))
        for name, v in terms:
            row[index[name]] = v
        if sense == "=":
            A_eq.append(row)
            b_eq.append(rhs)
        else:
            sign = 1.0 if sense == "<=" else -1.0
            A_ub.append(sign * row)
            b_ub.append(sign * rhs)
    binaries = set(parsed.binaries)
    bounds = [
        parsed.bounds.get(name, (0.0, 1.0) if name in binaries else (0.0, np.inf))
        for name in names
    ]
    res = optimize.linprog(
        -c, A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
        A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
        bounds=bounds, method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("case", [*(f"tiny-{seed}" for seed in range(1, 6)), "desk-bh-1"])
def test_external_solver_reads_the_same_lp(modcod, case):
    if case == "desk-bh-1":
        cfg = dataclasses.replace(load_config(resolve_config_path("desk")), rng_seed=1)
        scenario, rates, pairs, _ = make_bundle(cfg, modcod)
        model = build_bh_model(scenario, rates, pairs)
    else:
        _, _, _, model = make_bundle(tiny_config(int(case.split("-")[1])), modcod)
    ours = solve_lp(model)
    assert ours.status == "optimal"
    assert _linprog_relaxation(export_lp(model)) == pytest.approx(ours.objective, abs=1e-7)
