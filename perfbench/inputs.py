"""Seeded input generators for the benchmark workloads.

Everything here is plain text built from a `random.Random(seed)`; nothing
imports colp, so the program under test sees only the generated inputs.
The seed chooses contents (numerals, list digits, names, letters, order);
whatever sets a request's cost (budgets, lengths, universe sizes, program
shapes) is fixed, so runs with different seeds do comparable work.
"""
from __future__ import annotations

import random
import re


def numeral(k: int) -> str:
    """Peano numeral s^k(z)."""
    return "s(" * k + "z" + ")" * k


def list_text(items, tail: str = "") -> str:
    body = ",".join(str(x) for x in items)
    return f"[{body}|{tail}]" if tail else f"[{body}]"


def ground_program(rng: random.Random) -> tuple[str, str]:
    """A ground program over {a, b, c} and the predicate to query.

    Layered ground rules, one optional self-loop whose head has no other
    clause, and at least one coclause; constants only, so every instance
    stays inside the {a, b, c} universe.  This mirrors the generator of the
    engine/oracle acceptance criterion, kept here so that editing the tests
    cannot change the benchmark's inputs.
    """
    atoms = [f"{p}({c})" for p in ("p", "q") for c in ("a", "b", "c")]
    rng.shuffle(atoms)
    lines: list[str] = []
    seen: set[str] = set()

    def emit(line: str) -> None:
        if line not in seen:
            seen.add(line)
            lines.append(line)

    defined = set()
    wide_bodies = 2
    for i, atom in enumerate(atoms):
        later = atoms[i + 1:]
        roll = rng.random()
        if roll < 0.25:
            continue
        if roll < 0.5 or not later:
            emit(f"{atom}.")
            defined.add(atom)
            continue
        for _ in range(rng.choice((1, 1, 2))):
            k = 1
            if wide_bodies and len(later) >= 2 and rng.random() < 0.3:
                k = 2
                wide_bodies -= 1
            emit(f"{atom} :- {', '.join(rng.sample(later, k))}.")
            defined.add(atom)
    spare = [a for a in atoms if a not in defined]
    if spare and rng.random() < 0.8:
        loop = rng.choice(spare)
        emit(f"{loop} :- {loop}.")
    for a in rng.sample(atoms, rng.randint(1, 3)):
        emit(f"{a} :~.")
    return "\n".join(lines) + "\n", rng.choice(("p", "q"))


CRITERION_8_SEED = 8254  # the generator seed of the acceptance criterion
CRITERION_8_PROGRAMS = 60


def renamed_ground_programs(rng: random.Random) -> list[tuple[str, ...]]:
    """The criterion-8 programs as (program, open query, ground query), each
    with its constants permuted and its predicates possibly swapped as the
    seed chooses, in seeded order.  The open query is the criterion's
    `pred(X).`; the ground query asks `pred(a).` before renaming.

    Fresh program shapes per seed would make the workload's cost follow the
    seed (a few shapes cost 100x the median); renaming keeps every shape and
    its cost while the program text still changes with the seed.
    """
    base = random.Random(CRITERION_8_SEED)
    out = []
    for _ in range(CRITERION_8_PROGRAMS):
        text, pred = ground_program(base)
        consts = dict(zip("abc", rng.sample("abc", 3)))
        preds = dict(zip("pq", rng.sample("pq", 2)))
        text = re.sub(r"\b([pq])\(([abc])\)",
                      lambda m: f"{preds[m[1]]}({consts[m[2]]})", text)
        out.append((text, f"{preds[pred]}(X).",
                    f"{preds[pred]}({consts['a']})."))
    rng.shuffle(out)
    return out


# --- regex universes ---------------------------------------------------------
#
# Terms are nested tuples (functor, *args) so that subterm closure and
# printing need no colp code.  Cyclic words are named universe entries.

_CYCLIC_WORDS = {"lz": ("0",), "lo": ("1",)}  # lz := [0|lz], lo := [1|lo]
_MIRROR = {"0": "1", "1": "0", "lz": "lo", "lo": "lz"}


def _word(digits, tail=("[]",)):
    out = tail
    for d in reversed(digits):
        out = (".", (str(d),), out)
    return out


def _regexes(depth: int) -> list:
    """Every regular expression of at most this depth."""
    out = [("0",), ("1",), ("eps",)]
    for _ in range(depth):
        out = out + [(op, r) for op in ("star", "omega") for r in out] + [
            (op, a, b) for op in ("cat", "plus") for a in out for b in out]
        out = list(dict.fromkeys(out))
    return out


def _closure(terms) -> frozenset:
    out: set = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t in out:
            continue
        out.add(t)
        if isinstance(t, tuple) and len(t) > 1:
            stack.extend(t[1:])
        elif isinstance(t, str):  # cyclic word name: head digit, tail itself
            stack.append(_CYCLIC_WORDS[t])
    return frozenset(out)


def _mirror(t):
    """Swap the letters 0 and 1, which regex.colp treats alike."""
    if isinstance(t, str):
        return _MIRROR[t]
    if len(t) == 1:
        return (_MIRROR.get(t[0], t[0]),)
    return (t[0],) + tuple(_mirror(a) for a in t[1:])


def _term_text(t) -> str:
    if isinstance(t, str):
        return t
    if t[0] == ".":
        items = []
        while isinstance(t, tuple) and t[0] == ".":
            items.append(_term_text(t[1]))
            t = t[2]
        if t == ("[]",):
            return list_text(items)
        return list_text(items, _term_text(t))
    if len(t) == 1:
        return t[0]
    return f"{t[0]}({','.join(_term_text(a) for a in t[1:])})"


def _universe_text(terms) -> str:
    lines = []
    for t in sorted(terms, key=_term_text):
        if isinstance(t, str):
            head = _term_text(_CYCLIC_WORDS[t])
            lines.append(f"{t} := [{head}|{t}]")
        else:
            lines.append(_term_text(t))
    return "\n".join(lines) + "\n"


def regex_universes(rng: random.Random, size: int) -> list[str]:
    """Every subterm-closed universe of exactly `size` elements spanned by
    one short 0/1 word (length up to two, or the all-0 / all-1 cycle) and
    one regular expression, one per shape up to swapping the letters 0 and
    1; the seed picks each one's letters and the order."""
    words = list(_CYCLIC_WORDS) + [_word([]), _word([0]), _word([1])] + [
        _word([x, y]) for x in (0, 1) for y in (0, 1)]
    shapes = {}
    for word in words:
        for rx in _regexes(size - 2):
            closed = _closure([word, rx])
            if len(closed) == size:
                pair = sorted((_universe_text(closed),
                               _universe_text(map(_mirror, closed))))
                shapes[pair[0]] = pair
    out = [rng.choice(shapes[key]) for key in sorted(shapes)]
    rng.shuffle(out)
    return out
