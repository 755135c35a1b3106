#!/usr/bin/env python3
"""Strategy files for the cosim-fleet workload, made in a process of their own.

    python3 bench/synth_files.py --hm HM --out DIR [--spans PATH]

Does what `sharedctrl synth --variant full` does for each built-in scenario:
reads the learned abstraction, then builds, solves, extracts, certifies and
serializes a strategy, written to `DIR/strategy-<scenario>.txt`.  With
`--spans` the calls are recorded as spans and dumped to PATH.  Exits with 2
if a scenario is unrealizable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from run import SCENARIOS  # puts this checkout's sources on sys.path

from layers import Layers
from spans import Tracer

from sharedctrl.driver import DriverParams
from sharedctrl.mealy import parse
from sharedctrl.scenario import load_scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--hm", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=args.spans is not None)
    layers = Layers(tracer)
    params = DriverParams()
    hm = parse(Path(args.hm).read_text(encoding="utf-8"))
    for name in SCENARIOS:
        text = layers.synthesize(hm, load_scenario(name), params, "full")[1]
        if text is None:
            print(f"{name}/full is unrealizable", file=sys.stderr)
            return 2
        (Path(args.out) / f"strategy-{name}.txt").write_text(text, encoding="utf-8")
    if tracer.enabled:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
