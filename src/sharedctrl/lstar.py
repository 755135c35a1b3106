"""Active learning of Mealy machines from a resettable system under learning.

Observation-table learning: fill the table by membership queries, close it,
build a hypothesis, then ask an equivalence oracle.  A counterexample adds
one distinguishing suffix to E (Rivest & Schapire, Inf. & Comp. 1993), and
the access-word set S grows only by closing, so the rows of S stay pairwise
distinct and the table cannot be inconsistent.  The oracle is any callable
that returns a counterexample word or None; the pipeline uses seeded
random-walk conformance testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .mealy import MealyMachine

MAX_ROUNDS = 100  # hypothesis rounds before a session gives up unconverged


class NotDistinguishing(ValueError):
    """A submitted counterexample does not separate hypothesis and SUL."""


class TableNotReady(RuntimeError):
    """Hypothesis requested from a table that is not closed."""


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

    S is kept prefix-closed, with pairwise-distinct rows; E starts as all
    length-1 suffixes so outputs are defined from the first round.
    `T[(s, e)]` holds the tuple of outputs the SUL emits while reading `e`
    after `s`.
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


def membership_query(sul, prefix, suffix, stats):
    """Reset, replay `prefix`, then record the outputs along `suffix`."""
    sul.reset()
    for a in prefix:
        sul.query(a)
    outputs = tuple(sul.query(a) for a in suffix)
    stats.membership_queries += 1
    return outputs


def fill(table, sul, stats):
    """Populate every missing (prefix, suffix) cell of the table."""
    for word in table.S + table.extensions():
        for e in table.E:
            if (word, e) not in table.T:
                table.T[(word, e)] = membership_query(sul, word, e, stats)
    return table


def unmatched(table):
    """First word of S * Sigma whose row is no row of S, or None."""
    s_rows = {table.row(s) for s in table.S}
    return next((w for w in table.extensions() if table.row(w) not in s_rows), None)


def close(table, sul, stats, state_cap):
    """Move unmatched successor rows into S until the table is closed.

    Only rows new to S join it, so S's rows stay pairwise distinct.
    `state_cap` (None for no cap) bounds |S| to build a deliberately coarse
    table; closing stops early once the cap is reached and the caller must
    then build the hypothesis with `allow_partial`.
    """
    while state_cap is None or len(table.S) < state_cap:
        word = unmatched(table)
        if word is None:
            break
        table.S.append(word)
        fill(table, sul, stats)
    return table


def is_closed(table):
    return unmatched(table) is None


def build_hypothesis(table, allow_partial):
    """Hypothesis machine: one state per word of S, whose rows are distinct.

    The table must be closed.  With `allow_partial`, successor rows that
    closing never matched (possible only under a state cap) fall back to the
    initial state, producing a deliberately coarse but well-formed machine.
    """
    if not allow_partial and not is_closed(table):
        raise TableNotReady("table must be closed")
    state_of = {table.row(s): q for q, s in enumerate(table.S)}
    delta = {q: {a: (state_of.get(table.row(s + (a,)), 0), table.T[(s, (a,))][0])
                 for a in table.alphabet}
             for q, s in enumerate(table.S)}
    return MealyMachine(table.alphabet, delta, initial=0).relabeled()


def process_counterexample(table, ce, sul, hypothesis, stats):
    """Add the one suffix of `ce` that splits a hypothesis state to E.

    `hypothesis` must have been built from this table's S (E may have grown
    since).  Rivest-Schapire search: with u_i the access word in S of the
    state the hypothesis reaches after ce[:i], find by binary search an i
    where the SUL's outputs on ce[i:] after u_i disagree with the hypothesis
    but those on ce[i+1:] after u_(i+1) agree.  Then v = ce[i+1:] separates
    u_i + ce[i] from u_(i+1), whose rows the hypothesis merged.  Returns
    whether v was new to E: it is not when E gained it after `hypothesis`
    was built, or when a state cap kept S from telling the rows apart.
    Raises `NotDistinguishing` if `ce` does not separate hypothesis and SUL.
    """
    def reached(word):
        state = hypothesis.initial
        for a in word:
            state = hypothesis.step(state, a)[0]
        return state

    access = {reached(s): s for s in table.S}
    predicted = hypothesis.run(ce)

    def agrees(i):
        return membership_query(sul, access[reached(ce[:i])], ce[i:], stats) == predicted[i:]

    if agrees(0):
        raise NotDistinguishing(f"word {ce!r} does not separate hypothesis and SUL")
    lo, hi = 0, len(ce)  # agrees(lo) is false, agrees(hi) is true
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if agrees(mid):
            hi = mid
        else:
            lo = mid
    suffix = ce[hi:]
    if suffix in table.E:
        return False
    table.E.append(suffix)
    fill(table, sul, stats)
    return True


def random_walk_eq(sul, hypothesis, cfg, stats):
    """Seeded random-walk conformance test.

    Runs `num_walks` walks with geometric restarts; returns the first input
    prefix on which SUL and hypothesis outputs diverge, else None.  Fully
    deterministic for a given `rng_seed`.
    """
    rng = random.Random(cfg.rng_seed)
    alphabet = hypothesis.inputs
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

    def __call__(self, hypothesis, stats):
        return random_walk_eq(self.sul, hypothesis, self.cfg, stats)


class LearningSession:
    """One learner bound to one SUL; supports external counterexamples.

    The refinement loop keeps a session alive across iterations so that
    violating traces can be injected and learning resumed on the same table.
    Oracle and injected counterexamples both go through
    `process_counterexample`, each adding at most one suffix to E; S grows
    only by closing.  A `state_cap` (at least 1; None for no cap) stops
    closing at that many rows and skips the oracle, for a deliberately
    coarse first hypothesis.
    """

    def __init__(self, sul, alphabet, oracle, state_cap=None):
        if state_cap is not None and state_cap < 1:
            raise ValueError(f"state_cap must be >= 1 or None, got {state_cap!r}")
        self.sul = sul
        self.oracle = oracle
        self.state_cap = state_cap
        self.table = ObservationTable(alphabet)
        self.stats = LearnStats()
        self.machine = None

    def _hypothesis(self):
        fill(self.table, self.sul, self.stats)
        close(self.table, self.sul, self.stats, self.state_cap)
        return build_hypothesis(self.table, allow_partial=self.state_cap is not None)

    def run(self):
        """Iterate closing / hypothesis / oracle until the oracle passes."""
        for _ in range(MAX_ROUNDS):
            self.stats.rounds += 1
            hypothesis = self._hypothesis()
            self.machine = hypothesis
            if self.state_cap is not None:
                # deliberately truncated run: skip the oracle, keep it coarse
                break
            ce = self.oracle(hypothesis, self.stats)
            if ce is None:
                self.stats.converged = True
                break
            process_counterexample(self.table, ce, self.sul, hypothesis, self.stats)
        self.stats.states = len(self.machine.states)
        self.stats.transitions = len(self.machine.states) * len(self.machine.inputs)
        return self.machine, self.stats

    def inject_counterexample(self, word):
        """Fold an externally found distinguishing word into the table.

        Lifts any state cap: refinement is the point where coarseness ends.
        Returns whether the word added a suffix to E.
        """
        self.state_cap = None
        return process_counterexample(self.table, tuple(word), self.sul, self.machine, self.stats)

