import dataclasses
import hashlib

import numpy as np
import pytest

from bhca.cli import resolve_config_path
from bhca.lp_format import ParsedLp, export_lp, model_canonical_rows, parse_lp, round_trip_matches
from bhca.baseline import build_bh_model
from bhca.linkbudget import compute_rate_table
from bhca.scenario import adjacency_pairs, generate_scenario, load_config

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
