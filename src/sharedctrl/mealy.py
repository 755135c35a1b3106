"""Deterministic Mealy machines: stepping, minimization, equivalence, text I/O.

Symbols (inputs and outputs) are opaque hashable Python literals -- ints,
strings, or nested tuples of those.  The interpretation of structured output
tuples is left entirely to callers; this module only moves them around.
"""

from __future__ import annotations

import ast
from collections import deque


class AlphabetMismatch(ValueError):
    """Two machines were combined that do not share an input alphabet."""


class FormatError(ValueError):
    """Malformed text in the `mealy v1` exchange format."""


class MealyMachine:
    """Deterministic, input-complete finite transducer.

    `delta` maps every state to a per-symbol table `{symbol: (successor,
    output)}`.  Every state must carry a complete table (one entry per input
    symbol); this is validated at construction time.  Instances are treated
    as immutable after construction and are safe to share between threads.
    """

    def __init__(self, inputs, delta, initial=0):
        inputs = tuple(inputs)
        if not inputs:
            raise ValueError("input alphabet must be non-empty")
        if len(set(inputs)) != len(inputs):
            raise ValueError("duplicate input symbols")
        if initial not in delta:
            raise ValueError(f"initial state {initial!r} has no transition table")
        symset = set(inputs)
        for state, table in delta.items():
            if set(table) != symset:
                raise ValueError(f"state {state!r} is not input-complete")
            for succ, _out in table.values():
                if succ not in delta:
                    raise ValueError(f"dangling successor {succ!r} from state {state!r}")
        self.inputs = inputs
        self.initial = initial
        self.delta = {s: dict(table) for s, table in delta.items()}
        self.states = tuple(delta)
        self._input_set = symset
        # output alphabet in first-appearance order over a deterministic sweep
        outs = {}
        for s in self.states:
            for a in inputs:
                outs.setdefault(self.delta[s][a][1], None)
        self.outputs = tuple(outs)

    def step(self, state, symbol):
        """One transition: returns (successor, output)."""
        if symbol not in self._input_set:
            raise ValueError(f"symbol {symbol!r} not in input alphabet")
        if state not in self.delta:
            raise ValueError(f"unknown state {state!r}")
        return self.delta[state][symbol]

    def run(self, word, start=None):
        """Outputs emitted while reading `word` from `start` (default: initial)."""
        state = self.initial if start is None else start
        outputs = []
        for symbol in word:
            state, out = self.step(state, symbol)
            outputs.append(out)
        return tuple(outputs)

    def reachable_states(self):
        """States reachable from the initial state, in BFS order."""
        seen = {self.initial: None}
        queue = deque([self.initial])
        while queue:
            state = queue.popleft()
            for symbol in self.inputs:
                succ = self.delta[state][symbol][0]
                if succ not in seen:
                    seen[succ] = None
                    queue.append(succ)
        return tuple(seen)

    def relabeled(self):
        """Canonical copy: dense integer states assigned in BFS order, initial = 0.

        Unreachable states are dropped.
        """
        order = self.reachable_states()
        remap = {state: i for i, state in enumerate(order)}
        delta = {
            remap[s]: {a: (remap[succ], out) for a, (succ, out) in self.delta[s].items()}
            for s in order
        }
        return MealyMachine(self.inputs, delta, initial=0)

    def __len__(self):
        return len(self.states)


def minimize(machine):
    """Smallest machine with the same input/output behavior.

    Partition refinement: states are first split by their per-input output
    row, then repeatedly by the blocks of their successors until stable.
    The result is relabeled to canonical BFS form.
    """
    m = machine.relabeled()
    block = {}
    sig_to_block = {}
    for s in m.states:
        sig = tuple(m.delta[s][a][1] for a in m.inputs)
        block[s] = sig_to_block.setdefault(sig, len(sig_to_block))
    while True:
        sig_to_block = {}
        new_block = {}
        for s in m.states:
            sig = (block[s], tuple(block[m.delta[s][a][0]] for a in m.inputs))
            new_block[s] = sig_to_block.setdefault(sig, len(sig_to_block))
        if len(sig_to_block) == len(set(block.values())):
            break
        block = new_block
    rep = {}
    for s in m.states:  # first state of each block represents it
        rep.setdefault(block[s], s)
    delta = {}
    for b, s in rep.items():
        delta[b] = {
            a: (block[m.delta[s][a][0]], m.delta[s][a][1]) for a in m.inputs
        }
    return MealyMachine(m.inputs, delta, initial=block[m.initial]).relabeled()


def equivalent(m1, m2):
    """Exact equivalence check by BFS over the product machine.

    Returns `(True, None)` when both machines emit identical outputs on every
    word, otherwise `(False, word)` where `word` is a shortest distinguishing
    word (lexicographically first in input order among the shortest ones).
    """
    if m1.inputs != m2.inputs:
        raise AlphabetMismatch(
            f"input alphabets differ: {m1.inputs!r} vs {m2.inputs!r}"
        )
    start = (m1.initial, m2.initial)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (s1, s2), word = queue.popleft()
        for symbol in m1.inputs:
            t1, o1 = m1.delta[s1][symbol]
            t2, o2 = m2.delta[s2][symbol]
            if o1 != o2:
                return False, word + (symbol,)
            pair = (t1, t2)
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (symbol,)))
    return True, None


def _encode_symbol(symbol):
    text = repr(symbol)
    if "\n" in text or "\r" in text:
        raise ValueError(f"symbol {symbol!r} cannot be encoded on one line")
    return text


def _decode_symbol(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise FormatError(f"bad symbol literal: {text!r}") from exc


def serialize(machine):
    """Render a machine in the versioned plain-text format.

    Layout: header `mealy v1 |Q| |Sigma| |Gamma|`, one `in`/`out` line per
    alphabet symbol (Python literals), then one `t src in_idx dst out_idx`
    line per transition.  The machine is relabeled to canonical form first,
    so the initial state is always 0.
    """
    m = machine.relabeled()
    out_index = {o: i for i, o in enumerate(m.outputs)}
    lines = [f"mealy v1 {len(m.states)} {len(m.inputs)} {len(m.outputs)}"]
    for a in m.inputs:
        lines.append(f"in {_encode_symbol(a)}")
    for o in m.outputs:
        lines.append(f"out {_encode_symbol(o)}")
    for s in range(len(m.states)):
        for i, a in enumerate(m.inputs):
            succ, out = m.delta[s][a]
            lines.append(f"t {s} {i} {succ} {out_index[out]}")
    return "\n".join(lines) + "\n"


def parse(text):
    """Inverse of `serialize`; raises FormatError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty automaton text")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "mealy" or header[1] != "v1":
        raise FormatError(f"bad header: {lines[0]!r}")
    try:
        n_states, n_in, n_out = (int(x) for x in header[2:])
    except ValueError as exc:
        raise FormatError(f"bad header counts: {lines[0]!r}") from exc
    expect = 1 + n_in + n_out + n_states * n_in
    if len(lines) != expect:
        raise FormatError(f"expected {expect} lines, got {len(lines)}")
    pos = 1
    inputs = []
    for _ in range(n_in):
        kind, _, rest = lines[pos].partition(" ")
        if kind != "in":
            raise FormatError(f"expected input symbol line, got {lines[pos]!r}")
        inputs.append(_decode_symbol(rest))
        pos += 1
    outputs = []
    for _ in range(n_out):
        kind, _, rest = lines[pos].partition(" ")
        if kind != "out":
            raise FormatError(f"expected output symbol line, got {lines[pos]!r}")
        outputs.append(_decode_symbol(rest))
        pos += 1
    delta = {s: {} for s in range(n_states)}
    for _ in range(n_states * n_in):
        parts = lines[pos].split()
        if len(parts) != 5 or parts[0] != "t":
            raise FormatError(f"bad transition line: {lines[pos]!r}")
        try:
            src, in_idx, dst, out_idx = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise FormatError(f"bad transition line: {lines[pos]!r}") from exc
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise FormatError(f"state out of range: {lines[pos]!r}")
        if not (0 <= in_idx < n_in and 0 <= out_idx < n_out):
            raise FormatError(f"symbol index out of range: {lines[pos]!r}")
        delta[src][inputs[in_idx]] = (dst, outputs[out_idx])
        pos += 1
    try:
        return MealyMachine(inputs, delta, initial=0)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _dot_escape(text):
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def to_dot(machine, name="mealy"):
    """DOT digraph with `input/output` edge labels and a marked initial state."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  __start [shape=point];']
    lines.append(f'  __start -> "{_dot_escape(machine.initial)}";')
    for state in machine.states:
        lines.append(f'  "{_dot_escape(state)}" [shape=circle];')
    for state in machine.states:
        for symbol in machine.inputs:
            succ, out = machine.delta[state][symbol]
            label = _dot_escape(f"{symbol}/{out}")
            lines.append(
                f'  "{_dot_escape(state)}" -> "{_dot_escape(succ)}" [label="{label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
