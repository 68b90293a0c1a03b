import copy
import dataclasses
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from uavcontract import (ChannelParams, ExperimentConfig, ParseError, PhcRun,
                         ValidationError, derived_delay, load_config,
                         parse_config, run_compare, run_solve,
                         solve_partial_info, verify_feasibility)
from uavcontract.cli import main

DATA = "tests/data"


def base_raw():
    return {
        "mode": "solve",
        "scenario": {
            "satisfaction_factor": 6.0,
            "deployment_cost": 1.0,
            "s_max": 300.0,
            "t_max": 2.0,
            "vdd_demand": 800.0,
            "types": [
                {"c1": 1.0, "n": 5, "t": 1.0},
                {"c1": 0.5, "n": 5, "t": 1.0},
            ],
        },
    }


def variant(*edits):
    raw = base_raw()
    for path, value in edits:
        node = raw
        for key in path[:-1]:
            node = node[key]
        if value is ...:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return raw


class TestDefaults:
    def test_minimal_config(self):
        cfg = parse_config(base_raw())
        assert cfg.mode == "solve"
        assert cfg.output_dir == "out"
        assert cfg.seeds == ()
        assert cfg.channel == ChannelParams()
        assert cfg.phc is None and cfg.phc_run is None
        assert cfg.grid_oracle is None and cfg.linear_price is None
        assert cfg.populations == (2, 4, 6, 8, 10)
        assert cfg.cost_points == 25
        sc = cfg.scenario
        assert [ty.index for ty in sc.types] == [1, 2]
        assert sc.total_uavs == 10
        assert sc.deployment_cost == 1.0

    def test_omitted_optionals(self):
        raw = variant((("scenario", "deployment_cost"), ...))
        raw["scenario"]["types"][0].pop("t")
        raw["scenario"]["types"][0]["position"] = [100.0, 0.0, 30.0]
        raw["scenario"]["reference_bytes"] = 300.0
        cfg = parse_config(raw)
        assert cfg.scenario.deployment_cost == 0.0

    def test_explicit_blocks(self):
        raw = base_raw()
        raw["mode"] = "phc"
        raw["seeds"] = [0, 1, 2 ** 64 - 1]
        raw["output_dir"] = "elsewhere"
        raw["channel"] = {"bandwidth": 2e6, "gcs_height": 10.0}
        raw["phc"] = {"learning_rate_gcs": 0.5, "reward_levels": 6,
                      "slots": 600, "window": 100, "tolerance": 0.9}
        raw["grid_oracle"] = 0.25
        raw["linear_price"] = 1.0
        raw["sweep"] = {"populations": [3, 5], "cost_points": 7}
        cfg = parse_config(raw)
        assert cfg.seeds == (0, 1, 2 ** 64 - 1)
        assert cfg.channel.bandwidth == 2e6
        assert cfg.channel.gcs_height == 10.0
        assert cfg.channel.tx_power == 0.1
        assert cfg.phc.learning_rate_gcs == 0.5
        assert cfg.phc.reward_levels == 6
        assert cfg.phc.learning_rate_uav == 0.7
        assert cfg.phc.step_uav == 0.05
        assert cfg.phc_run.slots == 600
        assert cfg.phc_run.window == 100
        assert cfg.phc_run.tolerance == 0.9
        assert cfg.phc_run.hotboot_episodes == 0
        assert cfg.populations == (3, 5)
        assert cfg.cost_points == 7


class TestScenarioBlock:
    def test_total_mismatch(self):
        raw = base_raw()
        raw["scenario"]["total_uavs"] = 12
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "scenario.total_uavs"

    def test_total_match_accepted(self):
        raw = base_raw()
        raw["scenario"]["total_uavs"] = 10
        assert parse_config(raw).scenario.total_uavs == 10

    def test_missing_required_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config(variant((("scenario", "vdd_demand"), ...)))
        assert err.value.field == "scenario.vdd_demand"

    def test_duplicate_indices(self):
        raw = base_raw()
        raw["scenario"]["types"][1]["index"] = 1
        raw["scenario"]["types"][0]["index"] = 1
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "scenario.types[1].index"

    def test_type_needs_c1_and_n(self):
        raw = base_raw()
        del raw["scenario"]["types"][0]["c1"]
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert "types[0]" in err.value.field

    def test_exactly_one_delay_source(self):
        raw = base_raw()
        raw["scenario"]["types"][0]["position"] = [50.0, 0.0, 30.0]
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert "types[0]" in err.value.field
        raw = base_raw()
        del raw["scenario"]["types"][0]["t"]
        with pytest.raises(ValidationError):
            parse_config(raw)

    def test_position_derives_delay(self):
        raw = base_raw()
        raw["scenario"]["reference_bytes"] = 300.0
        raw["scenario"]["types"][0] = {"c1": 1.0, "n": 5,
                                       "position": [100.0, 0.0, 30.0]}
        raw["channel"] = {"gcs_height": 5.0}
        cfg = parse_config(raw)
        expect = derived_delay(300.0, (100.0, 0.0, 30.0), (0.0, 0.0, 5.0),
                               ChannelParams(gcs_height=5.0))
        assert cfg.scenario.types[0].t == expect
        assert expect > 0.0

    def test_position_requires_reference_bytes(self):
        raw = base_raw()
        raw["scenario"]["types"][0] = {"c1": 1.0, "n": 5,
                                       "position": [100.0, 0.0, 30.0]}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "scenario.reference_bytes"

    def test_position_shape_checked(self):
        for bad in ([1.0, 2.0], [1.0, "x", 3.0], "nope"):
            raw = base_raw()
            raw["scenario"]["types"][0] = {"c1": 1.0, "n": 5,
                                           "position": bad}
            with pytest.raises(ValidationError):
                parse_config(raw)

    def test_wrapped_value_errors(self):
        with pytest.raises(ValidationError):
            parse_config(variant((("scenario", "types", 0, "c1"), -1.0)))
        with pytest.raises(ValidationError):
            parse_config(variant((("scenario", "types", 0, "t"), 0.0)))
        with pytest.raises(ValidationError):
            parse_config(variant((("scenario", "s_max"), 0.0)))


class TestStrictness:
    def test_unknown_keys_rejected_everywhere(self):
        cases = [
            ("config.bogus", {**base_raw(), "bogus": 1}),
            ("scenario.extra", variant((("scenario", "extra"), 1))),
            ("scenario.types[0].weight",
             variant((("scenario", "types", 0, "weight"), 1))),
        ]
        raw = base_raw()
        raw["channel"] = {"fading": 3}
        cases.append(("channel.fading", raw))
        raw = base_raw()
        raw["phc"] = {"momentum": 0.9}
        cases.append(("phc.momentum", raw))
        raw = base_raw()
        raw["sweep"] = {"steps": 3}
        cases.append(("sweep.steps", raw))
        for field, bad in cases:
            with pytest.raises(ValidationError) as err:
                parse_config(bad)
            assert err.value.field == field

    def test_channel_has_no_slot_length(self, tmp_path, capsys):
        # nothing read it, so the field is gone and the parser refuses it
        raw = base_raw()
        raw["channel"] = {"slot_length": 1.0}
        with pytest.raises(ValidationError,
                           match="^channel.slot_length: unknown field$"):
            parse_config(raw)
        cfg = tmp_path / "slot.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: channel.slot_length: unknown field"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bool_is_not_a_number(self):
        with pytest.raises(ValidationError):
            parse_config(variant((("scenario", "types", 0, "c1"), True)))
        with pytest.raises(ValidationError):
            parse_config(variant((("scenario", "types", 0, "n"), True)))
        raw = base_raw()
        raw["phc"] = {"reward_levels": True}
        with pytest.raises(ValidationError):
            parse_config(raw)

    def test_mode_checked(self):
        with pytest.raises(ValidationError):
            parse_config(variant((("mode",), "optimize")))
        with pytest.raises(ValidationError):
            parse_config(variant((("mode",), 7)))
        with pytest.raises(ValidationError):
            parse_config(variant((("mode",), ...)))

    def test_seed_validation(self):
        raw = base_raw()
        raw["seeds"] = "012"
        with pytest.raises(ValidationError):
            parse_config(raw)
        raw["seeds"] = [0, -1]
        with pytest.raises(ValidationError):
            parse_config(raw)
        raw["seeds"] = [2 ** 64]
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "seeds[0]"

    def test_non_mapping_blocks(self):
        with pytest.raises(ValidationError):
            parse_config([1, 2, 3])
        with pytest.raises(ValidationError):
            parse_config(variant((("scenario",), "text")))
        raw = base_raw()
        raw["channel"] = 4
        with pytest.raises(ValidationError):
            parse_config(raw)

    def test_output_dir_checked(self):
        with pytest.raises(ValidationError):
            parse_config({**base_raw(), "output_dir": ""})
        with pytest.raises(ValidationError):
            parse_config({**base_raw(), "output_dir": 3})


class TestModeRequirements:
    def test_phc_mode_needs_block_and_seeds(self):
        raw = base_raw()
        raw["mode"] = "phc"
        raw["seeds"] = [0]
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "phc"
        raw["phc"] = {}
        del raw["seeds"]
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "seeds"
        raw["seeds"] = [0]
        assert parse_config(raw).phc is not None

    def test_phc_run_invariants(self):
        with pytest.raises(ValidationError):
            PhcRun(slots=100, window=101)
        with pytest.raises(ValidationError):
            PhcRun(tolerance=0.0)
        with pytest.raises(ValidationError):
            PhcRun(perturbation=1.0)
        with pytest.raises(ValidationError):
            PhcRun(family_size=0)
        with pytest.raises(ValidationError):
            PhcRun(hotboot_episodes=-1)

    def test_experiment_config_invariants(self):
        cfg = parse_config(base_raw())
        import dataclasses
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, grid_oracle=0.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, linear_price=-1.0)
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, populations=())
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, populations=(0,))
        with pytest.raises(ValidationError):
            dataclasses.replace(cfg, cost_points=1)

    # the Python API refuses the counts that the parser refuses: no float,
    # however whole, and no bool
    @pytest.mark.parametrize("bad", [2.5, 3.0, True],
                             ids=["fraction", "whole-float", "bool"])
    @pytest.mark.parametrize("field", [
        "slots", "hotboot_episodes", "family_size", "slots_per_episode",
        "window"])
    def test_phc_run_counts_are_integers(self, field, bad):
        with pytest.raises(ValidationError, match="must be an integer") as err:
            PhcRun(**{"slots": 50, "window": 10, field: bad})
        assert err.value.field == field

    @pytest.mark.parametrize("bad", [2.5, 3.0, True],
                             ids=["fraction", "whole-float", "bool"])
    @pytest.mark.parametrize("key, field", [
        ("seeds", "seeds[0]"), ("populations", "sweep.populations[0]"),
        ("cost_points", "sweep.cost_points")])
    def test_experiment_config_counts_are_integers(self, key, field, bad):
        cfg = parse_config(base_raw())
        value = bad if key == "cost_points" else (bad,)
        with pytest.raises(ValidationError, match="must be an integer") as err:
            dataclasses.replace(cfg, **{key: value})
        assert err.value.field == field


class TestOneBoundary:
    """Domain types own the value checks; the parser adds the YAML path."""

    @pytest.mark.parametrize("path,value,field", [
        pytest.param(("scenario", "types", 0, "c1"), 10 ** 400,
                     "scenario.types[0].c1", id="c1-beyond-float"),
        (("scenario", "types", 1, "t"), math.inf, "scenario.types[1].t"),
        (("scenario", "types", 1, "n"), -1, "scenario.types[1].n"),
        (("scenario", "types", 1, "index"), 0, "scenario.types[1].index"),
        (("scenario", "deployment_cost"), -math.inf,
         "scenario.deployment_cost"),
        (("scenario", "vdd_demand"), 0.0, "scenario.vdd_demand"),
        (("scenario", "types"), [], "scenario.types"),
        (("grid_oracle",), math.inf, "grid_oracle"),
        (("linear_price",), math.nan, "linear_price"),
        pytest.param(("scenario", "types", 0, "n"), 10 ** 400,
                     "scenario.types[0].n", id="n-beyond-float"),
    ])
    def test_field_named(self, path, value, field):
        with pytest.raises(ValidationError) as err:
            parse_config(variant((path, value)))
        assert err.value.field == field

    @pytest.mark.parametrize("block,field", [
        ({"learning_rate_gcs": 2.0}, "phc.learning_rate_gcs"),
        ({"r_max": math.inf}, "phc.r_max"),
        ({"slots": 0}, "phc.slots"),
        ({"slots": 100, "window": 200}, "phc.window"),
    ])
    def test_phc_fields_carry_block_path(self, block, field):
        raw = base_raw()
        raw["phc"] = block
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == field

    @pytest.mark.parametrize("key", [
        "reward_levels", "size_levels", "slots", "hotboot_episodes",
        "family_size", "slots_per_episode", "window"])
    def test_phc_integer_keys_refuse_a_fraction(self, key):
        raw = base_raw()
        raw["phc"] = {key: 2.5}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == f"phc.{key}"

    def test_sweep_entry_named(self):
        raw = base_raw()
        raw["sweep"] = {"populations": [3, 0]}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "sweep.populations[1]"
        raw["sweep"] = {"populations": [3, 10 ** 400]}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "sweep.populations[1]"

    def test_reference_bytes_named(self):
        raw = base_raw()
        raw["scenario"]["reference_bytes"] = math.inf
        raw["scenario"]["types"][0] = {"c1": 1.0, "n": 5,
                                       "position": [100.0, 0.0, 30.0]}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "scenario.reference_bytes"

    @pytest.mark.parametrize("reference_bytes", [5.0e-324, 1.0e308])
    def test_unusable_derived_delay_named(self, reference_bytes):
        # the delay underflows to 0 or overflows to inf: the position and
        # the volume the user wrote are named, not the derived t
        raw = base_raw()
        raw["scenario"]["reference_bytes"] = reference_bytes
        raw["scenario"]["types"][0] = {"c1": 1.0, "n": 5,
                                       "position": [100.0, 0.0, 30.0]}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "scenario.types[0].position"
        assert "reference_bytes" in err.value.message

    def test_infinite_altitude_named(self):
        # directly overhead the path loss never reads the altitude, so only
        # the finiteness check refuses it
        raw = base_raw()
        raw["scenario"]["reference_bytes"] = 300.0
        raw["scenario"]["types"][0] = {"c1": 1.0, "n": 5,
                                       "position": [0.0, 0.0, math.inf]}
        with pytest.raises(ValidationError) as err:
            parse_config(raw)
        assert err.value.field == "scenario.types[0].position"

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_override_checked(self, seed):
        cfg = parse_config(base_raw())
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(cfg, seeds=(0, seed))
        assert err.value.field == "seeds[1]"

    def test_repeated_seed_refused(self):
        # a repeat would write its seed's files twice, in two processes
        raw = base_raw()
        for seeds, field in (([5, 5, 5, 5], "seeds[1]"),
                             ([1, 2, 1], "seeds[2]")):
            raw["seeds"] = seeds
            with pytest.raises(ValidationError, match="repeats seed") as err:
                parse_config(raw)
            assert err.value.field == field
        cfg = load_config(f"{DATA}/phc_single_type.yaml")
        with pytest.raises(ValidationError) as err:
            dataclasses.replace(cfg, seeds=(0, 7, 0))
        assert err.value.field == "seeds[2]"


def full_raw():
    """The base config with every optional block and a derived delay."""
    raw = base_raw()
    raw["seeds"] = [0, 1]
    raw["output_dir"] = "out"
    raw["linear_price"] = 1.0
    raw["scenario"]["reference_bytes"] = 300.0
    raw["scenario"]["total_uavs"] = 12
    raw["scenario"]["types"].append(
        {"index": 3, "c1": 0.3, "c2": 0.1, "n": 2,
         "position": [80.0, 0.0, 60.0]})
    raw["channel"] = {"kappa_los": 1.0, "kappa_nlos": 20.0,
                      "gcs_height": 2.0, "bandwidth": 1.0e6,
                      "noise_power": 1.0e-13}
    raw["phc"] = {"learning_rate_gcs": 0.7, "discount_uav": 0.8,
                  "reward_levels": 4, "r_max": 10.0, "slots": 100,
                  "window": 50, "tolerance": 0.9, "perturbation": 0.2}
    raw["sweep"] = {"populations": [3, 5], "cost_points": 3}
    return raw


def full_variant(path, value):
    raw = full_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from leaf_paths(child, path + (i,))
    else:
        yield path


LEAVES = sorted(leaf_paths(full_raw()), key=repr)

EDGE_VALUES = [math.nan, math.inf, -math.inf, 1.0e308, -1.0e308, 5e-324,
               0, 0.0, -0.0, -1, 2 ** 63, 2 ** 64, -(2 ** 64), 10 ** 400,
               True, False, None, "", "1.0", [], [1.0, 2.0, 3.0], {}]

yaml_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=4))
yaml_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.recursive(yaml_scalars,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                 max_leaves=6))


def realistic(value) -> bool:
    """A number a real deployment could write: zero, or 1e-3..1e4 in size."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return value == 0 or 1e-3 <= abs(value) <= 1e4


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def parse_or_reject(raw):
    """parse_config's result, or None when it refuses with a config error."""
    try:
        return parse_config(raw)
    except (ParseError, ValidationError):
        return None


# the leaves that reach the compare and solve outputs
OUTPUT_LEAVES = [path for path in LEAVES
                 if path[0] in ("scenario", "channel", "linear_price")]


class TestArbitraryLeaf:
    """One leaf of the full config set to an arbitrary YAML value."""

    def test_every_leaf_takes_every_edge_value(self):
        for value in EDGE_VALUES:
            for path in LEAVES:
                parse_or_reject(full_variant(path, value))

    @given(value=yaml_values)
    def test_parse_raises_only_config_errors(self, value):
        for path in LEAVES:
            parse_or_reject(full_variant(path, value))

    @given(value=st.one_of(st.floats(-1e4, 1e4), st.integers(-10, 10 ** 4)))
    def test_accepted_configs_give_finite_feasible_output(self, value):
        if not realistic(value):
            return
        for path in OUTPUT_LEAVES:
            cfg = parse_or_reject(full_variant(path, value))
            if cfg is None:
                continue
            # one directory per mode: a second manifest.json renamed
            # over the first would flush the file system every example
            with tempfile.TemporaryDirectory() as tmp:
                run_compare(cfg, Path(tmp) / "compare")
                run_solve(cfg, Path(tmp) / "solve")
                for name in ("compare/compare.csv", "solve/menu.csv",
                             "solve/summary.json"):
                    text = (Path(tmp) / name).read_text()
                    assert not NON_FINITE.search(text), (path, name, text)
            # the complete-information menu is not IC by design
            menu, _ = solve_partial_info(cfg.scenario)
            assert verify_feasibility(cfg.scenario, menu).feasible, path


class TestLoadConfig:
    def test_scenario_a_roundtrip(self):
        cfg = load_config(f"{DATA}/scenario_a.yaml")
        assert cfg.mode == "compare"
        assert len(cfg.scenario.types) == 2
        assert cfg.scenario.satisfaction_factor == 6.0
        assert cfg.scenario.s_max == 300.0

    def test_scenario_b_roundtrip(self):
        cfg = load_config(f"{DATA}/scenario_b.yaml")
        assert cfg.mode == "solve"
        assert cfg.grid_oracle == 0.25
        assert cfg.scenario.t_max == 4.0

    def test_phc_roundtrip(self):
        cfg = load_config(f"{DATA}/phc_single_type.yaml")
        assert cfg.mode == "phc"
        assert cfg.seeds == (0, 1, 2)
        assert cfg.phc.r_max == 13.0
        assert cfg.phc_run.window == 500

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_config("tests/data/no_such_file.yaml")

    def test_malformed_yaml_reports_location(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("mode: solve\n  indent: wrong\n")
        with pytest.raises(ParseError) as err:
            load_config(bad)
        assert err.value.line == 2
        assert err.value.column is not None

    def test_non_mapping_document(self, tmp_path):
        doc = tmp_path / "list.yaml"
        doc.write_text("- 1\n- 2\n")
        with pytest.raises(ValidationError):
            load_config(doc)


def test_variant_helper_does_not_share_state():
    a = base_raw()
    b = variant((("scenario", "s_max"), 5.0))
    assert a["scenario"]["s_max"] == 300.0
    assert b["scenario"]["s_max"] == 5.0
    assert copy.deepcopy(a) == base_raw()
