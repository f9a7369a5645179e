import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from bhca import lp_format
from bhca.cli import resolve_config_path
from bhca.lp_format import ParsedLp, export_lp, model_canonical_rows, parse_lp, round_trip_matches
from bhca.baseline import build_bh_model
from bhca.linkbudget import compute_rate_table
from bhca.model import EQUAL, GREATER, LESS, LinearConstraint, ModelInstance
from bhca.scenario import adjacency_pairs, generate_scenario, load_config
from bhca.solver import solve_lp

from conftest import make_bundle, tiny_config

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


def test_export_mentions_constraint_tags(tiny_bundle):
    _, _, _, model = tiny_bundle
    text = export_lp(model)
    for tag in ("C1_l1_u1", "C4_l2_u2", "C7b_l1_c1_u1", "C8b", "C9d_l2_c2_u2_t2"):
        assert f" {tag}:" in text


class _Columns:
    """Catalog stand-in whose columns carry the given names."""

    def __init__(self, names):
        self.names = list(names)


def _edge_model():
    n = 30
    first14 = tuple(range(14))
    rows = [
        LinearConstraint(first14, (1.0,) * 14, LESS, 1.0, "exactly_220_chars"),
        LinearConstraint(first14, (1.0,) * 14, LESS, 1.0, "one_wider_than_220"),
        LinearConstraint((), (), GREATER, -0.0, "empty"),
        LinearConstraint((0, 1, 2, 3, 4), (-2.5, 1e15, -0.0, 3.0, 0.1), EQUAL, 1e16, "mixed"),
        LinearConstraint((5,), (-1.0,), GREATER, -7.25, "negative"),
        LinearConstraint(tuple(range(n)), tuple(-0.001 * (j + 1) for j in range(n)), LESS, 2.0**60, "long"),
        LinearConstraint(tuple(range(n)), (1.0,) * n, LESS, 1.0, "continued"),
        LinearConstraint(tuple(range(n)), (0.25,) * n, LESS, 1.0, "two_full_row"),
    ]
    lower, upper = np.zeros(n), np.ones(n)
    lower[25:], upper[25:] = [-5.0, 1.0, 0.0, 0.0, 0.0], [2.5, np.inf, 1e15, 1.0, np.inf]
    return ModelInstance.from_constraints(
        _Columns(f"x{j:08d}" for j in range(n)), rows, objective=(np.arange(n) - 10) * 0.5,
        lower=lower, upper=upper, binary=np.arange(n) < 25,
    )


_TERMS14 = "".join(f" + 1 x{j:08d}" for j in range(14))

# export_lp of _edge_model, pinned from the per-row implementation. Rows,
# the objective and Binaries fold at 220 characters; numbers of 1e15 and
# more are written with repr, -0.0 as 0.
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
    " mixed: - 2.5 x00000000 + 1000000000000000.0 x00000001 + 0 x00000002 + 3 x00000003"
    " + 0.1 x00000004 = 1e+16",
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


def _non_ascii_model():
    """Non-ASCII row tags and column names, one of them outside the Basic
    Multilingual Plane, in rows that fold and rows between them."""
    n = 24
    names = [f"β{j:02d}" if j % 2 else f"𝛽{j:02d}_ü" for j in range(n)]
    rows = [
        LinearConstraint((0, 1), (1.0, -2.0), LESS, 1.0, "ratio_é"),
        LinearConstraint(tuple(range(n)), (0.5,) * n, GREATER, 0.0, "Σ_wide"),
        LinearConstraint((2,), (1.0,), EQUAL, 0.5, "plain"),
        LinearConstraint(tuple(range(n)), tuple(-1.25 - j for j in range(n)), LESS, 3.0, "𝛽_wide_too"),
        LinearConstraint((n - 1,), (2.0,), LESS, 4.0, "last_ö"),
    ]
    lower, upper = np.zeros(n), np.ones(n)
    upper[20:] = [2.0, np.inf, 7.5, np.inf]
    lower[21] = -1.0
    return ModelInstance.from_constraints(
        _Columns(names), rows, objective=np.linspace(-3.0, 3.0, n),
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
    model = ModelInstance.from_constraints(
        _Columns([wide, "x"]), [LinearConstraint((0, 1), (1.0, 1.0), LESS, 1.0, "wide")],
        objective=np.ones(2), lower=np.zeros(2), upper=np.ones(2), binary=np.ones(2, dtype=bool),
    )
    assert export_lp(model) == "\n".join([
        "\\ Problem: bhca", "Maximize", " obj: + 1", f"  {wide}", "  + 1 x",
        "Subject To", " wide: + 1", f"  {wide}", "  + 1 x <= 1",
        "Bounds", "Binaries", f" {wide}", "  x", "End", "",
    ])


def test_model_without_rows_exports_empty_sections():
    model = ModelInstance.from_constraints(
        _Columns(["u", "v"]), [], objective=np.zeros(2),
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
    rows = [
        LinearConstraint(tuple(range(k)), (0.5,) * k, (LESS, GREATER, EQUAL)[i % 3], float(i), f"r{i}")
        for i, k in enumerate(sizes)
    ]
    return ModelInstance.from_constraints(
        _Columns(f"x{j:08d}" for j in range(n)), rows, objective=np.ones(n),
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
    assert len(list(lp_format._runs(desk_seed1_models[0].indptr))) > 1
    assert [export_lp(m) for m in models] == want


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
    assert ratio <= 3


def _two_column_model(lower=(0.0, 0.0), upper=(np.inf, 1.0), objective=(1.0, 1.0), coef=1.0, rhs=1.0,
                      sense=LESS, names=("u", "v"), tag="r1"):
    return ModelInstance.from_constraints(
        _Columns(names), [LinearConstraint((0, 1), (1.0, coef), sense, rhs, tag)],
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
    (dict(tag="r\n1"), r"row 'r\\n1' holds a line break"),
    (dict(tag="r\r1"), r"row 'r\\r1' holds a line break"),
    (dict(names=("u", "v\n")), r"column 'v\\n' holds a line break"),
], ids=["free-lower", "nan-upper", "minus-inf-upper", "inf-objective", "nan-coef", "inf-rhs", "unknown-sense",
        "line-break-row", "carriage-return-row", "line-break-column"])
def test_export_names_what_the_format_cannot_carry(change, match):
    # These used to raise OverflowError or "cannot convert float NaN to integer".
    with pytest.raises(ValueError, match=match):
        export_lp(_two_column_model(**change))


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
