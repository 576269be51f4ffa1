"""Seeded inputs and the stored trace corpus.

The seed decides everything the program is fed: the minijs work-loop
scales and bug choices, the Derby-1633 SQL batch (row counts and
contents), and the order ops run in.  The program itself only ever sees the generated
scripts and batches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from repro.capture import TraceFilter
from repro.exec.capture import CaptureTask, run_capture_tasks
from repro.workloads.harness import SCENARIOS
from repro.workloads.minidb import scenario as derby
from repro.workloads.minijs.bug_registry import MINIJS_BUGS, scaled
from repro.workloads.minijs.engine import run_script
from repro.workloads.minijs.scenario import MINIJS_FILTER

#: Case studies captured as-is (their inputs are fixed by the paper),
#: with their version entry points as ``module:attr`` references (the
#: Daikon versions are partials over modules, which do not pickle).
#: Derby-1633 runs on a seeded, smaller SQL batch instead (see
#: ``derby_batch``): its 49k-entry traces cost ~9 s to capture and
#: store, too much to repeat in every set-up (``run.SETUPS`` per run).
FIXED_STUDIES = {
    "Daikon": ("repro.workloads.invariants.scenario",
               "run_old_version", "run_new_version"),
    "Xalan-1725": ("repro.workloads.minixslt.scenario",
                   "run_1725_old", "run_1725_new"),
    "Xalan-1802": ("repro.workloads.minixslt.scenario",
                   "run_1802_old", "run_1802_new"),
}

#: minijs bugs of four root-cause categories whose stored views diffs
#: cost alike at work-loop scales 1-2 (447-519 ms at reference speed,
#: against 285-556 ms over the six bugs first tried at scales 0-3).  The
#: pairs are the corpus's costliest, with Daikon's regression pair, so
#: their cost sets ``latency_tail_ms``: the seed's choice must not move it.
MINIJS_POOL = ("MC-MOD-NEG", "B-FOR-INIT", "CF-NOT-IF", "T-PUSH-RET")

#: The four recipe traces and the three pairs diffed from them.
ROLES = ("old/regressing", "new/regressing", "old/correct", "new/correct")
PAIRS = (("suspected", 0, 1), ("expected", 2, 3), ("regression", 3, 1))


def derby_batch(rng: random.Random, orders: int
                ) -> tuple[list[str], list[str], list[str]]:
    """A Derby-1633 SQL session over ``orders`` order rows and seeded
    contents: the same schema, the same regressing query (the
    predicated ``IN`` subquery over the shadowed ``region`` column) and
    its corrected twin."""
    setup = ["CREATE TABLE orders (id, region, amount)",
             "CREATE TABLE customers (name, region, tier)"]
    for order_id in range(1, orders + 1):
        region = derby.REGIONS[rng.randrange(len(derby.REGIONS))]
        setup.append(f"INSERT INTO orders VALUES ({order_id}, "
                     f"'{region}', {rng.randint(20, 420)})")
    for customer_id in range(1, orders // 3 + 4):
        region = derby.REGIONS[rng.randrange(len(derby.REGIONS))]
        setup.append(f"INSERT INTO customers VALUES ('cust{customer_id}', "
                     f"'{region}', {rng.randint(1, 3)})")
    return setup, list(derby.REGRESSING_QUERIES), list(derby.CORRECT_QUERIES)


@dataclass(slots=True)
class Program:
    """One program whose runs are captured: a version pair and inputs."""

    name: str
    old: object
    new: object
    regressing: object
    correct: object | None
    filter: TraceFilter
    #: Pairs of role indexes (into ROLES) diffed from this program.
    pairs: tuple = PAIRS


@dataclass(slots=True)
class StoredPair:
    """One stored-diff op: two store keys, their sizes, and the
    expected result (filled off the clock)."""

    name: str
    left: str
    right: str
    entries: int
    expected: object = None


@dataclass(slots=True)
class Corpus:
    pairs: list[StoredPair] = field(default_factory=list)
    traces: dict = field(default_factory=dict)


def corpus_programs(rng: random.Random) -> list[Program]:
    """The stored-diff / service-rediff corpus: the fixed case
    studies, a seeded Derby-1633 batch of 8-11 order rows, and two
    seeded minijs bug pairs, at work-loop scales 1 and 2 (old vs
    bug-carrying engine on the failing script)."""
    programs = []
    for name, (module, old, new) in FIXED_STUDIES.items():
        spec = SCENARIOS[name]
        programs.append(Program(
            name=name, old=f"{module}:{old}", new=f"{module}:{new}",
            regressing=spec.regressing_input, correct=spec.correct_input,
            filter=TraceFilter(include_modules=spec.filter_modules)))
    spec = SCENARIOS["Derby-1633"]
    orders = rng.randint(8, 11)
    setup, bad, good = derby_batch(rng, orders)
    programs.append(Program(
        name=f"Derby-1633@{orders}", old=spec.run_old, new=spec.run_new,
        regressing=(setup, bad), correct=(setup, good),
        filter=TraceFilter(include_modules=spec.filter_modules)))
    # Two seeded bugs, one at each scale: every seed holds the same
    # amount of work at the top of the size range.
    for bug, scale in zip(rng.sample(MINIJS_POOL, 2), (1, 2)):
        source = scaled(str(MINIJS_BUGS.get(bug).failing_input), scale)
        programs.append(Program(
            name=f"{bug}@{scale}",
            old=partial(run_script, version="old"),
            new=partial(run_script, version="new", bug=bug),
            regressing=source, correct=None, filter=MINIJS_FILTER,
            pairs=(("suspected", 0, 1),)))
    return programs


def capture_corpus(programs: list[Program], store) -> Corpus:
    """Capture every program's runs (serially: a process pool saves
    little here and would outlive the set-up) and save each trace to
    ``store``; returns the corpus with its diff pairs."""
    tasks, keys = [], []
    for program in programs:
        roles = ROLES if program.correct is not None else ROLES[:2]
        for role in roles:
            payload = program.correct if role.endswith("correct") \
                else program.regressing
            runner = program.old if role.startswith("old") else program.new
            tasks.append(CaptureTask(func=runner, args=(payload,),
                                     name=f"{program.name}/{role}",
                                     filter=program.filter))
            keys.append(f"{program.name}/{role}")
    outcomes = run_capture_tasks(tasks)
    corpus = Corpus()
    for key, outcome in zip(keys, outcomes):
        store.save(outcome.trace, key=key)
        corpus.traces[key] = outcome.trace
    for program in programs:
        for label, left, right in program.pairs:
            lkey = f"{program.name}/{ROLES[left]}"
            rkey = f"{program.name}/{ROLES[right]}"
            corpus.pairs.append(StoredPair(
                name=f"{program.name}:{label}", left=lkey, right=rkey,
                entries=len(corpus.traces[lkey]) + len(corpus.traces[rkey])))
    return corpus


@dataclass(slots=True)
class RecipeItem:
    """One recipe op: a minijs bug at a work-loop scale."""

    bug: str
    scale: int
    expected: object = None

    @property
    def name(self) -> str:
        return f"{self.bug}@{self.scale}"


#: Three bugs of two root-cause categories whose recipe ops cost alike
#: at one scale (1.3-1.8 s on two 2 GHz cores), so the bug a seed puts
#: at each scale barely moves the figures.
RECIPE_POOL = ("MF-STR-COERCE", "MF-NEG-INDEX", "T-LE-TYPO")


def recipe_items(rng: random.Random) -> list[RecipeItem]:
    """The recipe corpus: the pool bugs at work-loop scales 0, 1 and 2,
    dealt out by a seeded shuffle.  A scale costs more than its entry
    count shows (scale 2 adds 14% entries and 35% op time), so every
    seed runs each scale once."""
    scales = list(range(len(RECIPE_POOL)))
    rng.shuffle(scales)
    return [RecipeItem(bug, scale) for bug, scale in zip(RECIPE_POOL, scales)]


def recipe_inputs(item: RecipeItem):
    """``(old, new, regressing script, correct script)`` of one item."""
    spec = MINIJS_BUGS.get(item.bug)
    return (partial(run_script, version="old"),
            partial(run_script, version="new", bug=item.bug),
            scaled(str(spec.failing_input), item.scale),
            scaled(str(spec.passing_input), item.scale))
