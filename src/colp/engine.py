"""Resolution engine for programs with coclauses.

A goal is a stack of frames, each an atom with its own set of coinductive
hypotheses.  Three moves resolve the leftmost frame:

  empty   the stack is empty: succeed with the current equations.
  step    unify the atom with a renamed clause head; push the body atoms,
          each carrying the atom as an extra hypothesis; the frames to the
          right keep their old hypotheses.
  co-hyp  unify the atom with one of its hypotheses, then re-derive the atom
          by standard resolution over clauses plus coclauses (no coclause
          move inside, empty hypotheses); the frames to the right continue
          under the resulting equations.

step and co-hyp each consume one unit of budget, shared along the whole
derivation including the inner re-derivations.  Builtins are free and are
never hypotheses.  A state at the budget wall makes no move, and counts as
a wall if a step is left: an atom that has a co-hyp move has a step too,
since each hypothesis took a step with an outer clause, and what unifies
with the hypothesis unifies with a fresh renaming of that clause head.

A mode picks a program's compiled clauses, the Templates the oracle
grounds (Program.templates), and each query sorts them into tables by head
signature.  A clause or hypothesis whose principal functors clash with the
atom's is skipped, and a ground atom and a ground hypothesis are decided
by their keys alone: a solve of the pair would bind nothing.  A value is
read as equations.unfold's raw table, for arithmetic, or through
value_key, for every key; \\= is the failure of solve.  Keys are exact: a
query keeps one store for all its sweeps, where a key holds values' ids
or a cyclic value's canonical table, and the store remembers the canonical
table of each cyclic raw table, so a loop that closes again and again is
minimised once per query (value_key).
A sweep also remembers, per branch, the store id of each compound
argument of a finite ground key, by the object the argument walks to, so
a later key stops there instead of walking the value again.  An entry
goes in at the stack height the state being expanded left, and goes once
the stack drops below that height: it lives in that state's subtree
alone, where bindings only grow, so the value stays as it was.  Only a
key taken under the equations of the state being expanded reads the
memo: a new hypothesis's and a re-derivation's before its table lookup.
A hypothesis keyed later, under the equations where it was made, reads
nothing, as those may leave free what the memo's branch bound.  A cyclic
table that meets a remembered id is keyed from a full unfold.

Each sweep keeps a table of failed re-derivations of ground atoms.  Such a
re-derivation has no hypotheses and runs on the inner clause tables, so
its outcome depends only on the atom's value and on the budget r left when
it starts.  It cannot fail finitely: under the move's equations its atom
equals an ancestor hypothesis, and the steps from there down to the atom,
with each co-hyp move on the way replaced by its own re-derivation, replay
as an inner derivation of the atom from itself.  So it succeeds or hits
the budget wall, and the table keeps, per value, the most budget left with
which one failed; a later one of the same value with r no greater would
hit the wall again, so it is skipped and the sweep is pruned.  The trace
shows each skip as a TABLED line.  A re-derivation whose subtree raised a
type error is not tabled, since its diagnostics name fresh variables.

Iterative deepening keys only the answers that cost more than the budget of
the sweep before, cost being the budget used at EMPTY.  A sweep finds every
derivation within its budget, and tabling never skips a success, so a
cheaper answer was found and keyed by the sweep before.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import IO, Iterator, Optional

from .equations import (EMPTY_SOLVED, BuiltinTypeError, SolvedForm,
                        arith_value, holds, solve, unfold, value_key, walk)
from .parser import Query, atom_to_str
from .terms import (MODES, Atom, Compound, Num, Program, Var, fresh_rename,
                    identical, is_builtin, principal)

STRATEGIES = ("dfs", "iddfs")
PREFERENCES = ("cohyp", "step")

FINITELY_FAILED = "finitely-failed"
BUDGET_EXHAUSTED = "budget-exhausted"
COMPLETE = "complete"


@dataclass(frozen=True)
class Config:
    mode: str = "flexible"
    strategy: str = "iddfs"
    budget: int = 1000
    max_answers: Optional[int] = None
    prefer: str = "cohyp"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.prefer not in PREFERENCES:
            raise ValueError(f"unknown preference {self.prefer!r}")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.max_answers is not None and self.max_answers < 1:
            raise ValueError("max_answers must be at least 1")


class Outcome:
    """Lazy answer stream plus, once the stream has been drained, how the
    search ended.  exhaustion stays None while answers remain unpulled or
    when the stream was cut off by max_answers."""

    def __init__(self, answers: Iterator[SolvedForm], diagnostics: list[str]):
        self.answers = answers
        self.diagnostics = diagnostics
        self.exhaustion: Optional[str] = None


def _clause_tables(prog: Program, mode: str) -> tuple:
    """(id, Template) lists by head signature, outside and inside co-hyp
    re-derivations (where coclauses follow the clauses), and whether the
    mode has coclauses."""
    clauses, coclauses = prog.templates(mode)
    outer: dict[tuple[str, int], list] = {}
    inner: dict[tuple[str, int], list] = {}
    for prefix, codes, into in (("c", clauses, (outer, inner)),
                                ("co", coclauses, (inner,))):
        for i, code in enumerate(codes, 1):
            head = code.clause.head
            for table in into:
                table.setdefault((head.pred, len(head.args)),
                                 []).append((f"{prefix}{i}", code))
    return outer, inner, bool(coclauses)


def _clash(xs: tuple, ys: tuple) -> bool:
    """Do two rows of principal functors rule out unifying the atoms?"""
    for x, y in zip(xs, ys):
        if x is not None and y is not None and x != y:
            return True
    return False


class _Hyp:
    """A coinductive hypothesis: an atom, its arguments' principal functors
    and the equations where it was made.  Bindings only grow below there,
    so a principal functor that was set and a ground value stay as they
    were."""

    __slots__ = ("atom", "heads", "solved", "_key")

    def __init__(self, atom: Atom, heads: tuple, solved: SolvedForm):
        self.atom, self.heads, self.solved = atom, heads, solved
        self._key = () if None in heads else None

    def key(self, store: dict, run: Optional[_Run] = None) -> tuple:
        """The atom's _ground_key where it was made; built at most once."""
        if self._key is None:
            self._key = _ground_key(self.atom, self.solved, store, run)
            self.solved = None  # the key was all it was kept for
        return self._key


def _ground_key(atom: Atom, solved: SolvedForm, store: dict,
                run: Optional[_Run] = None) -> tuple:
    """The predicate and the exact key of the atom's argument values in the
    store (see equations.value_key), or () if one is not ground.  Given
    the run whose state is being expanded, solved being that state's
    equations, it reads the run's memo and extends it by a finite key."""
    known = None if run is None else run.known
    nodes, roots = unfold(solved, atom.args, known)
    if any(k == "v" for k, _, _ in nodes):
        return ()
    key = value_key(nodes, roots, store)
    if key is None:  # cyclic through a remembered leaf
        key = value_key(*unfold(solved, atom.args), store)
    elif known is not None and key and key[0].__class__ is int:  # finite
        for a, sid in zip(atom.args, key):
            t = walk(solved, a)
            if t.__class__ is Compound and t.args and id(t) not in known:
                known[id(t)] = sid
                run.trail.append((len(run.stack), t))
    return (atom.pred, *key)


@dataclass(frozen=True, slots=True)
class Frame:
    atom: Atom
    # insertion order, duplicates collapsed; None on the frame that starts
    # a co-hyp move's re-derivation
    hyps: Optional[tuple[_Hyp, ...]]
    inner: bool             # inside a co-hyp re-derivation
    depth: int


class _Redo:
    """A co-hyp move's re-derivation of an atom under the move's equations,
    with r, the budget left, and the sweep's type error count when it
    started.  It goes on the stack twice: as a frame after the re-derived
    atom's body, reached once the atom is re-derived, and as an entry
    beneath the whole subtree, popped once that is done."""

    __slots__ = ("atom", "solved", "left", "errors", "done", "_key")

    def __init__(self, atom: Atom, solved: SolvedForm, left: int,
                 errors: int):
        self.atom, self.solved, self.left = atom, solved, left
        self.errors = errors
        self.done = False  # the atom was re-derived
        self._key: Optional[tuple] = None

    def key(self, store: dict, run: Optional[_Run] = None) -> tuple:
        """The atom's _ground_key; built at most once."""
        if self._key is None:
            self._key = _ground_key(self.atom, self.solved, store, run)
        return self._key


def eval_builtin(atom: Atom, solved: SolvedForm) -> Optional[SolvedForm]:
    """None means the branch fails; BuiltinTypeError means it is aborted."""
    pred = atom.pred
    if pred == "true":
        return solved
    a, b = atom.args
    if pred == "=":
        return solve([(a, b)], solved)
    nodes, (ra, rb) = unfold(solved, atom.args)
    if pred == "is":
        return solve([(a, Num(arith_value(nodes, rb)))], solved)
    if pred != "\\=":
        return solved if holds(pred, nodes, ra, rb) else None
    if any(k == "v" for k, _, _ in nodes):
        raise BuiltinTypeError("\\= needs ground arguments")
    return solved if solve([(a, b)], solved) is None else None


class _Run:
    """One depth-first sweep at a fixed budget, yielding the successes that
    cost more than floor, the budget of the sweep before it."""

    def __init__(self, tables: tuple, store: dict, budget: int, floor: int,
                 prefer: str, diagnostics: list[str],
                 trace: Optional[IO[str]]):
        self.outer, self.inner, self.has_co = tables
        self.store = store  # the query's values, for keys
        self.budget = budget
        self.floor = floor
        self.prefer = prefer
        self.diagnostics = diagnostics
        self.trace = trace
        self.fresh = itertools.count(1)
        self.walls = 0   # states cut at the budget wall
        self.errors = 0  # type errors raised
        # a ground re-derivation's key -> the most budget left with which
        # it failed, at the wall
        self.failed: dict[tuple, int] = {}
        self.stack: list[tuple] = []  # the pending states
        # the id() of a compound object -> its value's id in the store,
        # for ground values keyed on the path to the state being expanded;
        # and the (stack height, object) of each entry, in entry order
        self.known: dict[int, int] = {}
        self.trail: list[tuple[int, Compound]] = []

    def _tline(self, depth: int, text: str) -> None:
        if self.trace is not None:
            self.trace.write("  " * depth + text + "\n")

    def _diag(self, message: str) -> None:
        if message not in self.diagnostics:
            self.diagnostics.append(message)

    def solve_frames(self, frames: tuple[Frame, ...],
                     solved: SolvedForm) -> Iterator[SolvedForm]:
        """Depth-first backtracking over an explicit stack of pending states,
        so derivation length is bounded by the budget, not the interpreter's
        recursion limit.  Yields the equations of each success whose cost,
        the budget it used, is above the floor."""
        stack, known, trail = self.stack, self.known, self.trail
        stack.append((frames, solved, 0, None))
        while stack:
            frames, solved, used, note = stack.pop()
            # an entry made above this height held in a subtree now done
            while trail and trail[-1][0] > len(stack):
                del known[id(trail.pop()[1])]
            if frames is None:  # solved is a _Redo whose subtree is done
                self._record(solved)
                continue
            if note is not None:
                self._tline(note[0], note[1])
            if not frames:
                self._tline(0, "EMPTY")
                if used > self.floor:
                    yield solved
                continue
            frame, rest = frames[0], frames[1:]
            if frame.__class__ is _Redo:  # its atom was re-derived
                frame.done = True
                stack.append((rest, solved, used, None))
                continue
            atom = frame.atom

            if is_builtin(atom):
                try:
                    after = eval_builtin(atom, solved)
                except BuiltinTypeError as e:
                    self.errors += 1
                    snap = atom_to_str(atom, solved)  # one line, however big
                    snap = snap if len(snap) <= 200 else snap[:197] + "..."
                    self._diag(f"type error: {e} in {snap}")
                    continue
                if after is not None:
                    stack.append((rest, after, used, None))
                continue

            if frame.hyps is None:  # a co-hyp move's re-derivation starts
                redo = _Redo(atom, solved, self.budget - used, self.errors)
                if self.failed and self._tabled(redo, frame.depth):
                    continue
                stack.append((None, redo, 0, None))
                rest = (redo,) + rest
            sig = (atom.pred, len(atom.args))
            heads = tuple(principal(walk(solved, a)) for a in atom.args)
            steps = []
            for cid, code in (self.inner if frame.inner
                              else self.outer).get(sig, ()):
                if _clash(code.heads, heads):
                    next(self.fresh)  # skipped, but the stamp is used up
                    continue
                renamed = fresh_rename(code, self.fresh)
                after = solve(zip(atom.args, renamed.head.args), solved)
                if after is not None:
                    steps.append((cid, renamed.body, after))
            if used >= self.budget:  # no move is made past the wall
                if steps:  # a co-hyp move needs a step too
                    self.walls += 1
                continue
            hyps: tuple[_Hyp, ...] = ()
            cohyps = []
            # without coclauses, no co-hyp move reads the hypotheses
            if self.has_co and not frame.inner:
                made, store = _Hyp(atom, heads, solved), self.store
                dup = False
                for hyp in frame.hyps:
                    other = hyp.atom
                    if ((other.pred, len(other.args)) != sig
                            or _clash(hyp.heads, heads)):
                        continue
                    key = hyp.key(store) and made.key(store, self)
                    if key:  # both ground
                        if key != hyp.key(store):
                            continue
                        after = solved
                    else:
                        after = solve(zip(atom.args, other.args), solved)
                        if after is None:
                            continue  # so the atoms are not identical either
                    dup = dup or identical(other, atom)
                    note = None
                    if self.trace is not None:
                        note = (frame.depth,
                                f"COHYP {atom_to_str(atom, after)} "
                                f"~ {atom_to_str(other, after)}")
                    redo = Frame(atom, None, True, frame.depth + 1)
                    cohyps.append(((redo,) + rest, after, used + 1, note))
                hyps = frame.hyps if dup else frame.hyps + (made,)
            moves = []
            for cid, body, after in steps:
                body = tuple(Frame(b, hyps, frame.inner, frame.depth + 1)
                             for b in body)
                note = None
                if self.trace is not None:
                    note = (frame.depth,
                            f"STEP {atom_to_str(atom, after)} via {cid}")
                moves.append((body + rest, after, used + 1, note))
            alts = cohyps + moves if self.prefer == "cohyp" else moves + cohyps
            stack.extend(reversed(alts))

    def _tabled(self, redo: _Redo, depth: int) -> bool:
        """Is the re-derivation's outcome known from the failure table?  One
        that would hit the wall was tabled after this sweep hit it."""
        if redo.left > self.failed.get(redo.key(self.store, self), -1):
            return False
        if self.trace is not None:
            snap = atom_to_str(redo.atom, redo.solved)
            self._tline(depth, f"TABLED {snap} exhausted within {redo.left}")
        return True

    def _record(self, redo: _Redo) -> None:
        """Table a re-derivation that failed, at the wall, unless a type
        error was raised below it or its atom is not ground."""
        if redo.done or redo.errors != self.errors or not redo.key(self.store):
            return
        key = redo.key(self.store)
        self.failed[key] = max(self.failed.get(key, -1), redo.left)


def _answer_key(solved: SolvedForm, qvars: tuple[Var, ...],
                store: dict) -> tuple:
    """Equality-up-to-renaming key for one answer: the exact key in the
    store of the query variables' values, with free leaves renamed 0, 1,
    ... in table order.  unfold's table is breadth-first, so that is their
    first appearance level by level in the values, whatever the sharing."""
    nodes, roots = unfold(solved, qvars)
    names: dict[str, int] = {}
    nodes = [("v", names.setdefault(n[1], len(names)), ()) if n[0] == "v"
             else n for n in nodes]
    return value_key(nodes, roots, store)


def _budget_levels(cfg: Config) -> list[int]:
    if cfg.strategy == "dfs":
        return [cfg.budget]
    return [1 << i for i in range((cfg.budget - 1).bit_length())] + [cfg.budget]


def run_query(prog: Program, query: Query, cfg: Config,
              trace: Optional[IO[str]] = None) -> Outcome:
    """Enumerate answers to the query, lazily.

    Each answer is a solved form extending the query's equations; restrict
    to query.variables for display.  Iterative deepening restarts the sweep
    with doubling budgets and deduplicates answers up to renaming; a sweep
    passes on only the answers that cost more than the sweep before it had
    to spend, the others being found and keyed there already.  It stops
    early once a sweep finishes without hitting the budget wall, which also
    decides exhaustion: complete or finitely-failed if some sweep ran to the
    end, budget-exhausted otherwise.
    """
    tables = _clause_tables(prog, cfg.mode)
    frames = tuple(Frame(a, (), False, 0) for a in query.atoms)

    def generate() -> Iterator[SolvedForm]:
        store: dict = {}
        seen: set = set()
        emitted, floor = 0, -1  # builtins alone cost 0
        for level in _budget_levels(cfg):
            run = _Run(tables, store, level, floor, cfg.prefer,
                       outcome.diagnostics, trace)
            for solved in run.solve_frames(frames, EMPTY_SOLVED):
                key = _answer_key(solved, query.variables, store)
                if key in seen:
                    continue
                seen.add(key)
                yield solved
                emitted += 1
                if cfg.max_answers is not None and emitted >= cfg.max_answers:
                    return
            if not run.walls:
                outcome.exhaustion = COMPLETE if emitted else FINITELY_FAILED
                return
            floor = level
        outcome.exhaustion = BUDGET_EXHAUSTED

    outcome = Outcome(generate(), [])
    return outcome
