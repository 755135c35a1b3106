from dataclasses import replace

import pytest

from sharedctrl import cli, cosim
from sharedctrl.cli import EXIT_OK, EXIT_UNREALIZABLE, EXIT_USAGE, EXIT_VALIDATION, main
from sharedctrl.game import ArenaCapExceeded, Strategy, serialize_strategy
from sharedctrl.lstar import EqOracleConfig
from sharedctrl.mealy import serialize


def validate(tmp_path, hm, strategy, name, runs=2):
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text(serialize(hm), encoding="utf-8")
    strategy_path = tmp_path / f"{name}.txt"
    strategy_path.write_text(serialize_strategy(strategy), encoding="utf-8")
    out = tmp_path / name
    code = main(["validate", "--scenario", "default", "--hm", str(hm_path),
                 "--strategy", str(strategy_path), "--out", str(out), "--runs", str(runs)])
    return code, out


def test_validate_runs_a_synthesized_strategy(tmp_path, oracle_machine, default_synthesis):
    _arena, _region, strategy = default_synthesis
    code, out = validate(tmp_path, oracle_machine, strategy, "synthesized")
    assert code == EXIT_OK
    assert len(list((out / "traces").iterdir())) == 2


def test_validate_fails_a_fallback_episode(tmp_path, monkeypatch, oracle_machine,
                                          default_synthesis):
    # the verdict passes, but the fail-safe fallback fired once: exit 3
    real_execute = cli.execute
    misses = iter([1])

    def one_miss(*args, **kwargs):
        trace = real_execute(*args, **kwargs)
        trace.lookup_misses = next(misses, trace.lookup_misses)
        return trace

    monkeypatch.setattr(cli, "execute", one_miss)
    _arena, _region, strategy = default_synthesis
    code, out = validate(tmp_path, oracle_machine, strategy, "fallback")
    assert code == EXIT_VALIDATION
    lines = (out / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    assert lines == [f"run={r} status=safe-and-reached witness=None misses={1 - r}"
                     for r in range(2)]


def test_validate_rejects_a_needless_override(tmp_path, capsys, oracle_machine,
                                              default_synthesis):
    _arena, _region, strategy = default_synthesis
    # every entry is reached by the strategy's plays; `none` wins at this one
    state = next(s for s in sorted(strategy.actions) if strategy.actions[s] == "none")
    flipped = Strategy({**strategy.actions, state: "override"}, strategy.variant)
    code, out = validate(tmp_path, oracle_machine, flipped, "flipped")
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "rejected" in err and "min_intervention=FAIL" in err
    assert not (out / "traces").exists()


def test_validate_rejects_a_relabelled_variant(tmp_path, capsys, oracle_machine,
                                              default_synthesis):
    # no-override is unrealizable on default; the full strategy's overrides
    # label no edge of the no-override arena
    _arena, _region, strategy = default_synthesis
    relabelled = Strategy(strategy.actions, "no-override")
    code, out = validate(tmp_path, oracle_machine, relabelled, "relabelled")
    assert code == EXIT_VALIDATION
    assert "'override' labels no edge" in capsys.readouterr().err
    assert not (out / "traces").exists()


def test_validate_rejects_the_variant_flag(tmp_path, capsys, oracle_machine,
                                           default_synthesis):
    # the game is built for the variant in the strategy file's header
    _arena, _region, strategy = default_synthesis
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text(serialize(oracle_machine), encoding="utf-8")
    strategy_path = tmp_path / "strategy.txt"
    strategy_path.write_text(serialize_strategy(strategy), encoding="utf-8")
    code = main(["validate", "--variant", "no-override", "--hm", str(hm_path),
                 "--strategy", str(strategy_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --variant no-override" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_reads_a_scenario_file(tmp_path, oracle_machine, default_sc,
                                     default_synthesis):
    _arena, _region, strategy = default_synthesis
    scenario_path = tmp_path / "default.scenario"
    scenario_path.write_text(default_sc.to_text(), encoding="utf-8")
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text(serialize(oracle_machine), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["synth", "--scenario", str(scenario_path), "--hm", str(hm_path),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "strategy.txt").read_text(encoding="utf-8") == serialize_strategy(strategy)


def test_synth_names_the_bad_line_of_a_scenario_file(tmp_path, capsys, oracle_machine):
    scenario_path = tmp_path / "typo.scenario"
    scenario_path.write_text("name=typo\nhorizon_epoch=5\n", encoding="utf-8")
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text(serialize(oracle_machine), encoding="utf-8")
    code = main(["synth", "--scenario", str(scenario_path), "--hm", str(hm_path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "line 2: unknown key 'horizon_epoch'" in capsys.readouterr().err


def test_synth_names_the_bad_line_of_an_abstraction_file(tmp_path, capsys, oracle_machine):
    lines = serialize(oracle_machine).splitlines()
    lines[-1] = "t 0 x 1 0"
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["synth", "--hm", str(hm_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert (f"{hm_path}: line {len(lines)}: bad transition line: 't 0 x 1 0'"
            in capsys.readouterr().err)


def test_validate_names_the_bad_line_of_a_strategy_file(tmp_path, capsys, oracle_machine):
    hm_path = write_hm(tmp_path, oracle_machine)
    strategy_path = tmp_path / "s.txt"
    strategy_path.write_text("strategy v1 bogus 1\n0 0 30 0 0 none\n", encoding="utf-8")
    code = main(["validate", "--hm", str(hm_path), "--strategy", str(strategy_path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert (f"{strategy_path}: line 1: unknown variant 'bogus': 'strategy v1 bogus 1'"
            in capsys.readouterr().err)


def write_hm(tmp_path, hm):
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text(serialize(hm), encoding="utf-8")
    return hm_path


def test_learn_writes_the_abstraction(tmp_path):
    out = tmp_path / "out"
    assert main(["learn", "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert (out / "hm.mealy").is_file()


def test_synth_unrealizable_writes_stats_only(tmp_path, oracle_machine):
    out = tmp_path / "out"
    code = main(["synth", "--scenario", "braking", "--variant", "no-override",
                 "--hm", str(write_hm(tmp_path, oracle_machine)), "--out", str(out)])
    assert code == EXIT_UNREALIZABLE
    assert "realizable=false" in (out / "arena_stats.txt").read_text(encoding="utf-8")
    assert not (out / "strategy.txt").exists()


def test_demo_reaches_the_destination(capsys):
    assert main(["demo"]) == EXIT_OK
    assert "verdict: safe-and-reached" in capsys.readouterr().out


def test_refine_passes_on_default(tmp_path):
    assert main(["refine", "--runs", "2", "--out", str(tmp_path / "out")]) == EXIT_OK


def test_refine_writes_only_the_machine_of_a_disagreeing_iteration(tmp_path, monkeypatch):
    # from a 2-state start, the first iteration stops at a disagreement with
    # the driver: no strategy and no episodes to write
    loop = cli.refine_loop
    monkeypatch.setattr(cli, "refine_loop",
                        lambda scenario, cfg: loop(scenario, replace(cfg, initial_state_cap=2)))
    out = tmp_path / "out"
    assert main(["refine", "--runs", "2", "--out", str(out)]) == EXIT_OK
    assert [p.name for p in (out / "iteration_00").iterdir()] == ["hm.mealy"]
    assert sorted(p.name for p in (out / "iteration_01").iterdir()) == [
        "hm.mealy", "strategy.txt", "trace_000.csv", "trace_001.csv"]
    assert "disagrees_with_driver_on=3,3,2 after_states=14" in \
        (out / "refinement_report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("flag", ["--runs", "--max-iter"])
def test_refine_rejects_a_count_below_one(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["refine", flag, "0", "--out", str(out)]) == EXIT_USAGE
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_validate_rejects_negative_runs(tmp_path, capsys, oracle_machine,
                                        default_synthesis):
    _arena, _region, strategy = default_synthesis
    code, out = validate(tmp_path, oracle_machine, strategy, "negative", runs=-2)
    assert code == EXIT_USAGE
    assert "--runs must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_refine_reports_an_arena_cap_error(tmp_path, capsys, monkeypatch):
    def capped(*args, **kwargs):
        raise ArenaCapExceeded("arena exceeded 10 states")

    monkeypatch.setattr(cosim, "build_arena", capped)
    code = main(["refine", "--runs", "2", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "arena build failed" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("learn", "--scenario", "default"),
    ("synth", "--seed", "7"),
    ("synth", "--oracle-walks", "10"),
    ("synth", "--oracle-len", "5"),
    ("synth", "--oracle-reset-prob", "0.5"),
    ("validate", "--oracle-walks", "10"),
    ("validate", "--oracle-len", "5"),
    ("validate", "--oracle-reset-prob", "0.5"),
    ("learn", "--runs", "2"),
    ("synth", "--runs", "2"),
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag,
                                                   value):
    # each subcommand takes only the flags it reads
    out = tmp_path / "out"
    required = {
        "learn": [],
        "synth": ["--hm", "hm.mealy"],
        "validate": ["--hm", "hm.mealy", "--strategy", "strategy.txt"],
    }[command]
    code = main([command, flag, value, "--out", str(out)] + required)
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_names_the_bad_driver_params_file(tmp_path, capsys, oracle_machine):
    params_path = tmp_path / "bad.params"
    params_path.write_text("k1=fast\n", encoding="utf-8")
    code = main(["synth", "--driver-params", str(params_path),
                 "--hm", str(write_hm(tmp_path, oracle_machine)),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(params_path) in err and "line 1: bad value for 'k1'" in err


def test_learn_rejects_a_negative_headway_level(tmp_path, capsys):
    params_path = tmp_path / "negative.params"
    params_path.write_text("thw_levels = -1.0, 2.0\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["learn", "--seed", "0", "--driver-params", str(params_path),
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(params_path) in err and "thw_levels" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("synth", "--hm"), ("synth", "--scenario"), ("synth", "--driver-params"),
    ("validate", "--hm"), ("validate", "--strategy"),
])
def test_an_input_file_that_is_not_utf8_is_named(tmp_path, capsys, oracle_machine,
                                                 default_synthesis, command, flag):
    texts = {"--hm": serialize(oracle_machine), "--scenario": "", "--driver-params": ""}
    if command == "validate":
        texts["--strategy"] = serialize_strategy(default_synthesis[2])
    argv = [command, "--out", str(tmp_path / "out")]
    for name, text in texts.items():
        path = tmp_path / name[2:]
        path.write_bytes(b"\xff\xfe" if name == flag else text.encode())
        argv += [name, str(path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / flag[2:]}: 'utf-8' codec")


def test_cli_defaults_are_the_config_defaults():
    parse = cli.build_parser().parse_args
    learn, refine = parse(["learn", "--out", "o"]), parse(["refine", "--out", "o"])
    validate = parse(["validate", "--out", "o", "--hm", "h", "--strategy", "s"])
    oracle, loop = EqOracleConfig(), cosim.RefineLoopConfig()
    for args in (learn, refine):
        assert (args.oracle_walks, args.oracle_len, args.oracle_reset_prob) == (
            oracle.num_walks, oracle.max_walk_len, oracle.reset_prob)
    assert validate.runs == refine.runs == loop.runs and refine.max_iter == loop.max_iterations
