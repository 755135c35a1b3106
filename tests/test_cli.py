from sharedctrl.cli import EXIT_OK, EXIT_VALIDATION, main
from sharedctrl.game import Strategy, serialize_strategy
from sharedctrl.mealy import serialize


def validate(tmp_path, hm, strategy, name):
    hm_path = tmp_path / "hm.mealy"
    hm_path.write_text(serialize(hm), encoding="utf-8")
    strategy_path = tmp_path / f"{name}.txt"
    strategy_path.write_text(serialize_strategy(strategy), encoding="utf-8")
    out = tmp_path / name
    code = main(["validate", "--scenario", "default", "--hm", str(hm_path),
                 "--strategy", str(strategy_path), "--out", str(out), "--runs", "2"])
    return code, out


def test_validate_runs_a_synthesized_strategy(tmp_path, oracle_machine, default_synthesis):
    _arena, _region, strategy = default_synthesis
    code, out = validate(tmp_path, oracle_machine, strategy, "synthesized")
    assert code == EXIT_OK
    assert len(list((out / "traces").iterdir())) == 2


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
