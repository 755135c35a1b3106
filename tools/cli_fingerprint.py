"""Fingerprint what the `sharedctrl` CLI prints and writes on a fixed list of runs.

Run it from the root of a checkout:

    python3 tools/cli_fingerprint.py

The program is imported from `src/` of the working directory, not from next
to this script, so one copy of the script fingerprints any checkout:

    (cd ../other-checkout && python3 ../this-checkout/tools/cli_fingerprint.py)

Every run calls `sharedctrl.cli.main` in this process, with all its inputs
and outputs under one temporary directory.  For each run the script prints
one line: the argv, the exit code, and the sha256 of stdout, of stderr and of
every file the run wrote, each path relative to the temporary directory.
The directory's path is masked as `<tmp>` in the argv, in the captured
streams and in the files before they are hashed.  Two checkouts whose CLI
behaves alike print identical lines, so `diff` of two outputs lists the runs
whose behaviour changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

from sharedctrl import cli  # noqa: E402

SCENARIOS = ("default", "braking")
VARIANTS = ("full", "no-override", "advisory-only")

# a scenario file that sets the hazard thresholds and a lead profile
SCENARIO_TEXT = """\
# shorter gap than the built-in default, a harder braking phase
name=fixture
lead_pos=45.0
lead_vel=13.0
follow_vel=14.0
dest=130.0
horizon_epochs=30
v_max=18.0
thw_safe=2.5
ttc_safe=3.5
profile 0 0
profile 4 -3
profile 6 1
profile 10 0
"""

# driver parameters with the default quantization, so the learned alphabet fits
PARAMS_TEXT = """\
k1=1.5
k2=0.5
thw_follow=2.0
thw_levels=1.0,2.0,3.0
"""


def runs():
    """The argv of each run, with `{tmp}` for the temporary directory."""
    hm = "{tmp}/learn/hm.mealy"
    yield ["learn", "--out", "{tmp}/learn"]
    for scenario in SCENARIOS:
        for variant in VARIANTS:
            yield ["synth", "--scenario", scenario, "--variant", variant, "--hm", hm,
                   "--out", f"{{tmp}}/synth-{scenario}-{variant}"]
    for scenario in SCENARIOS:
        yield ["validate", "--scenario", scenario, "--runs", "3", "--hm", hm,
               "--strategy", f"{{tmp}}/synth-{scenario}-full/strategy.txt",
               "--out", f"{{tmp}}/validate-{scenario}"]
    for scenario in SCENARIOS:
        yield ["demo", "--scenario", scenario]
    for scenario in SCENARIOS:
        yield ["refine", "--scenario", scenario, "--out", f"{{tmp}}/refine-{scenario}"]
    yield ["refine", "--scenario", "braking", "--variant", "no-override",
           "--expand-variants", "--out", "{tmp}/refine-braking-expand"]
    yield ["synth", "--scenario", "{tmp}/files/scenario.txt",
           "--driver-params", "{tmp}/files/params.txt", "--hm", hm,
           "--out", "{tmp}/synth-files"]
    # a seed and oracle walk other than the defaults, through both commands
    # that learn: `refine`'s traces depend on the seed
    learner = ["--seed", "7", "--oracle-walks", "60", "--oracle-len", "12",
               "--oracle-reset-prob", "0.2"]
    yield ["learn", *learner, "--out", "{tmp}/learn-seed7"]
    yield ["refine", "--scenario", "default", *learner, "--out", "{tmp}/refine-seed7"]


def _digest(data, tmp):
    return hashlib.sha256(data.replace(tmp.encode(), b"<tmp>")).hexdigest()


def _tree(tmp):
    """Relative path -> masked sha256 of every file under `tmp`."""
    found = {}
    for root, _dirs, files in os.walk(tmp):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, tmp)] = _digest(fh.read(), tmp)
    return found


def fingerprint(argv, tmp):
    """One line for one run of `cli.main(argv)`."""
    before = _tree(tmp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = sorted((path, sha) for path, sha in _tree(tmp).items()
                     if before.get(path) != sha)
    fields = [" ".join(argv).replace(tmp, "<tmp>"), f"exit={code}",
              f"stdout={_digest(out.getvalue().encode(), tmp)}",
              f"stderr={_digest(err.getvalue().encode(), tmp)}"]
    fields += [f"{path}={sha}" for path, sha in written]
    return " ".join(fields)


def main():
    if not os.path.dirname(os.path.abspath(cli.__file__)).startswith(SRC + os.sep):
        sys.exit(f"sharedctrl was imported from {cli.__file__}, not from {SRC}")
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "files"))
        for name, text in (("scenario.txt", SCENARIO_TEXT), ("params.txt", PARAMS_TEXT)):
            with open(os.path.join(tmp, "files", name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in runs():
            print(fingerprint([arg.replace("{tmp}", tmp) for arg in argv], tmp))


if __name__ == "__main__":
    main()
