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

    def run(self, word):
        """Outputs emitted while reading `word` from the initial state."""
        state = self.initial
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
    """Inverse of `serialize`; a malformed line raises `FormatError` naming
    its line number (blank lines counted) and text."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise FormatError("empty automaton text")

    def bad(pos, what):
        number, ln = lines[pos]
        return FormatError(f"line {number}: {what}: {ln!r}")

    header = lines[0][1].split()
    if len(header) != 5 or header[0] != "mealy" or header[1] != "v1":
        raise bad(0, "bad header")
    try:
        n_states, n_in, n_out = (int(x) for x in header[2:])
    except ValueError:
        raise bad(0, "bad header counts") from None
    if min(n_states, n_in, n_out) < 0:
        raise bad(0, "bad header counts")
    expect = 1 + n_in + n_out + n_states * n_in
    if len(lines) != expect:
        raise FormatError(f"expected {expect} lines, got {len(lines)}")

    def symbols(start, count, kind):
        found = []
        for pos in range(start, start + count):
            head, _, rest = lines[pos][1].partition(" ")
            if head != kind:
                raise bad(pos, f"expected {kind} symbol line")
            try:
                symbol = ast.literal_eval(rest)
                hash(symbol)  # symbols key the transition tables
            except (ValueError, SyntaxError, TypeError):
                raise bad(pos, "bad symbol literal") from None
            found.append(symbol)
        return found

    inputs = symbols(1, n_in, "in")
    outputs = symbols(1 + n_in, n_out, "out")
    delta = {s: {} for s in range(n_states)}
    for pos in range(1 + n_in + n_out, expect):
        parts = lines[pos][1].split()
        if len(parts) != 5 or parts[0] != "t":
            raise bad(pos, "bad transition line")
        try:
            src, in_idx, dst, out_idx = (int(x) for x in parts[1:])
        except ValueError:
            raise bad(pos, "bad transition line") from None
        if not (0 <= src < n_states and 0 <= dst < n_states):
            raise bad(pos, "state out of range")
        if not (0 <= in_idx < n_in and 0 <= out_idx < n_out):
            raise bad(pos, "symbol index out of range")
        if inputs[in_idx] in delta[src]:
            raise bad(pos, "repeated transition")
        delta[src][inputs[in_idx]] = (dst, outputs[out_idx])
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
