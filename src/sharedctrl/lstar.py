"""Active learning of Mealy machines from a resettable system under learning.

Classic observation-table learning: fill the table by membership queries,
repair closedness and consistency, build a hypothesis, then ask an
equivalence oracle.  Counterexamples are processed by adding all their
prefixes to the access-word set.  The oracle is any callable that returns a
counterexample word or None; the pipeline uses seeded random-walk
conformance testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .mealy import MealyMachine


class NotDistinguishing(ValueError):
    """A submitted counterexample does not separate hypothesis and SUL."""


class TableNotReady(RuntimeError):
    """Hypothesis requested from a table that is not closed and consistent."""


@dataclass(frozen=True)
class EqOracleConfig:
    """Random-walk equivalence oracle settings."""

    num_walks: int = 500
    max_walk_len: int = 20
    reset_prob: float = 0.09
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 <= self.reset_prob <= 1:
            raise ValueError("reset_prob must lie in [0, 1]")
        if self.num_walks < 1 or self.max_walk_len < 1:
            raise ValueError("num_walks and max_walk_len must be >= 1")


@dataclass
class LearnStats:
    rounds: int = 0
    membership_queries: int = 0
    equivalence_queries: int = 0
    states: int = 0
    transitions: int = 0
    converged: bool = False

    def report_text(self):
        lines = [
            f"rounds={self.rounds}",
            f"membership_queries={self.membership_queries}",
            f"equivalence_queries={self.equivalence_queries}",
            f"states={self.states}",
            f"transitions={self.transitions}",
            f"converged={'true' if self.converged else 'false'}",
        ]
        return "\n".join(lines) + "\n"


class ObservationTable:
    """Prefix set S, suffix set E, and the observed output map T.

    S is kept prefix-closed; E starts as all length-1 suffixes so outputs are
    defined from the first round.  `T[(s, e)]` holds the tuple of outputs the
    SUL emits while reading `e` after `s`.
    """

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ValueError("alphabet must be non-empty")
        self.S = [()]
        self.E = [(a,) for a in self.alphabet]
        self.T = {}

    def row(self, word):
        return tuple(self.T[(word, e)] for e in self.E)

    def extensions(self):
        """S * Sigma in deterministic order, skipping words already in S."""
        in_s = set(self.S)
        ext = []
        for s in self.S:
            for a in self.alphabet:
                word = s + (a,)
                if word not in in_s:
                    ext.append(word)
        return ext

    def add_prefixes(self, word):
        """Add every prefix of `word` to S (keeps S prefix-closed)."""
        in_s = set(self.S)
        for i in range(1, len(word) + 1):
            prefix = word[:i]
            if prefix not in in_s:
                self.S.append(prefix)
                in_s.add(prefix)


def membership_query(sul, prefix, suffix, stats=None):
    """Reset, replay `prefix`, then record the outputs along `suffix`."""
    sul.reset()
    for a in prefix:
        sul.query(a)
    outputs = tuple(sul.query(a) for a in suffix)
    if stats is not None:
        stats.membership_queries += 1
    return outputs


def fill(table, sul, stats=None):
    """Populate every missing (prefix, suffix) cell of the table."""
    for word in table.S + table.extensions():
        for e in table.E:
            if (word, e) not in table.T:
                table.T[(word, e)] = membership_query(sul, word, e, stats)
    return table


def close(table, sul, stats=None, state_cap=None):
    """Move unmatched successor rows into S until the table is closed.

    `state_cap` bounds |S| to build a deliberately coarse table; closing
    stops early once the cap is reached and the caller must then build the
    hypothesis with `allow_partial`.
    """
    while True:
        if state_cap is not None and len(table.S) >= state_cap:
            return table
        s_rows = {table.row(s) for s in table.S}
        moved = None
        for word in table.extensions():
            if table.row(word) not in s_rows:
                moved = word
                break
        if moved is None:
            return table
        table.S.append(moved)
        fill(table, sul, stats)


def find_inconsistency(table):
    """First suffix `(a,) + e` that separates the successors of two prefixes
    with equal rows, or None when the table is consistent.

    The clash is the first in the order (s1, s2, a, e) over S, S, alphabet
    and E.  Each row is computed once, and only prefixes with equal rows are
    compared: if two prefixes of a group of equal rows clash, one of them
    clashes with the group's first prefix, so the first clash involves it.
    """
    rows = {w: table.row(w) for w in table.S + table.extensions()}
    groups = {}  # row -> prefixes with that row, in S order
    for s in table.S:
        groups.setdefault(rows[s], []).append(s)
    for first, *others in groups.values():
        for s2 in others:
            for a in table.alphabet:
                r1, r2 = rows[first + (a,)], rows[s2 + (a,)]
                if r1 != r2:
                    e = next(e for e, o1, o2 in zip(table.E, r1, r2) if o1 != o2)
                    return (a,) + e
    return None


def make_consistent(table, sul, stats=None):
    """Add distinguishing suffixes until equal rows have equal successor rows."""
    while True:
        clash = find_inconsistency(table)
        if clash is None:
            return table
        table.E.append(clash)
        fill(table, sul, stats)


def is_closed(table):
    s_rows = {table.row(s) for s in table.S}
    return all(table.row(w) in s_rows for w in table.extensions())


def is_consistent(table):
    return find_inconsistency(table) is None


def build_hypothesis(table, allow_partial=False):
    """Hypothesis machine: states are the distinct rows over S.

    With `allow_partial`, successor rows that closing never matched (possible
    only under a state cap) fall back to the initial state's row, producing a
    deliberately coarse but well-formed machine.
    """
    if not allow_partial and (not is_closed(table) or not is_consistent(table)):
        raise TableNotReady("table must be closed and consistent")
    row_ids = {}
    rep = {}
    for s in table.S:
        r = table.row(s)
        if r not in row_ids:
            row_ids[r] = len(row_ids)
            rep[row_ids[r]] = s
    delta = {}
    for q, s in rep.items():
        suffix_of = {e[0]: e for e in table.E if len(e) == 1}
        table_q = {}
        for a in table.alphabet:
            succ_row = table.row(s + (a,))
            if succ_row in row_ids:
                dst = row_ids[succ_row]
            elif allow_partial:
                dst = 0
            else:
                raise TableNotReady(f"successor row of {s + (a,)!r} not in S")
            out = table.T[(s, suffix_of[a])][0]
            table_q[a] = (dst, out)
        delta[q] = table_q
    machine = MealyMachine(table.alphabet, delta, initial=0)
    return machine.relabeled()


def process_counterexample(table, ce, sul, hypothesis, stats=None):
    """Fold a distinguishing word into the table (all prefixes join S)."""
    actual = membership_query(sul, (), ce, stats)
    predicted = hypothesis.run(ce)
    if actual == predicted:
        raise NotDistinguishing(f"word {ce!r} does not separate hypothesis and SUL")
    table.add_prefixes(ce)
    fill(table, sul, stats)
    return table


def random_walk_eq(sul, hypothesis, cfg, stats=None):
    """Seeded random-walk conformance test.

    Runs `num_walks` walks with geometric restarts; returns the first input
    prefix on which SUL and hypothesis outputs diverge, else None.  Fully
    deterministic for a given `rng_seed`.
    """
    rng = random.Random(cfg.rng_seed)
    alphabet = hypothesis.inputs
    if stats is not None:
        stats.equivalence_queries += 1
    for _ in range(cfg.num_walks):
        sul.reset()
        state = hypothesis.initial
        word = []
        while len(word) < cfg.max_walk_len:
            if word and rng.random() < cfg.reset_prob:
                break
            symbol = rng.choice(alphabet)
            word.append(symbol)
            actual = sul.query(symbol)
            state, predicted = hypothesis.step(state, symbol)
            if actual != predicted:
                return tuple(word)
    return None


class RandomWalkOracle:
    def __init__(self, sul, cfg):
        self.sul = sul
        self.cfg = cfg

    def __call__(self, hypothesis, stats=None):
        return random_walk_eq(self.sul, hypothesis, self.cfg, stats)


class LearningSession:
    """One learner bound to one SUL; supports external counterexamples.

    The refinement loop keeps a session alive across iterations so that
    violating traces can be injected and learning resumed on the same table.
    """

    def __init__(self, sul, alphabet, oracle, max_rounds=100, state_cap=None):
        self.sul = sul
        self.oracle = oracle
        self.max_rounds = max_rounds
        self.state_cap = state_cap
        self.table = ObservationTable(alphabet)
        self.stats = LearnStats()
        self.machine = None

    def _stabilize(self):
        fill(self.table, self.sul, self.stats)
        while True:
            close(self.table, self.sul, self.stats, self.state_cap)
            if self.state_cap is not None and len(self.table.S) >= self.state_cap:
                break
            make_consistent(self.table, self.sul, self.stats)
            if is_closed(self.table):
                break

    def _hypothesis(self):
        return build_hypothesis(self.table, allow_partial=self.state_cap is not None)

    def run(self):
        """Iterate table repair / hypothesis / oracle until the oracle passes."""
        for _ in range(self.max_rounds):
            self.stats.rounds += 1
            self._stabilize()
            hypothesis = self._hypothesis()
            self.machine = hypothesis
            if self.state_cap is not None:
                # deliberately truncated run: skip the oracle, keep it coarse
                break
            ce = self.oracle(hypothesis, self.stats)
            if ce is None:
                self.stats.converged = True
                break
            self.table.add_prefixes(ce)
            fill(self.table, self.sul, self.stats)
        self.stats.states = len(self.machine.states)
        self.stats.transitions = len(self.machine.states) * len(self.machine.inputs)
        return self.machine, self.stats

    def inject_counterexample(self, word):
        """Fold an externally found distinguishing word into the table.

        Lifts any state cap: refinement is the point where coarseness ends.
        """
        self.state_cap = None
        process_counterexample(self.table, tuple(word), self.sul, self.machine, self.stats)

