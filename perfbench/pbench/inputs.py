"""Seeded inputs for the two workloads.

The six competition corpora are built at one fixed seed (``CORPUS_SEED``,
the seed the paper-reproduction suite uses), so every run searches the
same peer corpora and the run-to-run spread of a metric reflects the
program and the host, not six freshly drawn corpora; the served user
scripts are fixed the same way.  The run seed draws the rest: the order
of the Table 5 groups, the scripts that edit a corpus and the order of
the served requests.  The program only ever receives the generated
inputs.
"""

from __future__ import annotations

import itertools
import os
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Seed of the competition corpora (datasets and peer scripts).
CORPUS_SEED = 0

#: User scripts per competition in the paper's Table 5 block.
TABLE5_SCRIPTS = 6

#: Table 5 methods in the order one (competition, script) group runs them.
TABLE5_METHODS = (
    "LS (tau_J)",
    "LS (tau_M)",
    "Sourcery",
    "GPT-3.5",
    "GPT-4",
    "Auto-Suggest",
    "Auto-Tables",
)

#: Fresh user scripts per competition for the served workload, generated
#: at ``CORPUS_SEED``.  Each op takes them in a fixed rotation, so every
#: run sends nearly the same jobs; with a pool drawn from the run seed,
#: the pool's cost alone moved the served median between seeds.
USER_SCRIPTS = 12

#: Fresh scripts per competition, drawn from the run seed, that replace a
#: corpus script in an edited-corpus request.
EDIT_SCRIPTS = 3

#: Served op mix (``score`` is sent as the CLI client sends it).
OP_MIX = (("score", 0.5), ("standardize", 0.3), ("explain", 0.1), ("detect_leakage", 0.1))

#: Share of served requests whose corpus has one script replaced.
EDIT_SHARE = 0.1

#: Served requests per block.  Within a block the op mix, the spread of
#: each op over the six corpora and the share of edited corpora are exact
#: (120 makes every quota whole); only their order is drawn.
SERVE_BLOCK = 120

#: LucidScript settings every served request carries.  A search at
#: (seq=4, K=1) costs about a quarter of one at the paper defaults, which
#: ``table5`` measures, so one run serves four times the requests and the
#: server layer's own costs weigh more.
SERVE_CONFIG = {"seq": 4, "beam_size": 1}


def _rng(seed: int, *labels: str) -> np.random.Generator:
    return np.random.default_rng([seed] + [zlib.crc32(label.encode()) for label in labels])


Pause = Optional[Callable[[float], None]]


def _timed(pause: Pause, fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, then ``pause(its duration)`` when given
    (set-up calibrates between its pieces)."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    if pause is not None:
        pause(time.perf_counter() - start)
    return value


def build_competitions(root: str, pause: Pause = None) -> Dict[str, "object"]:
    """All six full-size competitions under *root* (fixed seed)."""
    from repro.workloads import build_competition, competition_names

    return {
        name: _timed(pause, build_competition, name, root, seed=CORPUS_SEED)
        for name in competition_names()
    }


def table5_groups(names: Sequence[str], seed: int) -> List[Tuple[str, int]]:
    """The Table 5 block's (competition, script) groups in a seeded order;
    each group runs every method of ``TABLE5_METHODS`` on one pair.

    The order is a seeded interleaving of the competitions that keeps
    each competition's scripts in ascending order, because the simulated
    GPT rewriters draw from one random stream per (competition, method)
    across its scripts, exactly as the paper suite runs them.
    """
    rng = _rng(seed, "table5-order")
    remaining = {name: list(range(TABLE5_SCRIPTS)) for name in names}
    slots = [name for name in names for _ in range(TABLE5_SCRIPTS)]
    order = rng.permutation(len(slots))
    return [(slots[position], remaining[slots[position]].pop(0)) for position in order]


def user_scripts(
    competitions: Dict[str, "object"], seed: int, pause: Pause = None
) -> Dict[str, Dict[str, List[str]]]:
    """Fresh, executable user and replacement scripts per competition,
    generated with seeded rngs against each competition's dataset: the
    user scripts at ``CORPUS_SEED``, the replacements at the run seed."""
    from repro.workloads import SPECS, generate_scripts

    pools: Dict[str, Dict[str, List[str]]] = {}
    for name, corpus in competitions.items():
        users, _ = _timed(
            pause, generate_scripts, SPECS[name], corpus.data_dir,
            _rng(CORPUS_SEED, "user-scripts", name), n_scripts=USER_SCRIPTS,
        )
        edits, _ = _timed(
            pause, generate_scripts, SPECS[name], corpus.data_dir,
            _rng(seed, "edit-scripts", name), n_scripts=EDIT_SCRIPTS,
        )
        pools[name] = {"user": users, "edit": edits}
    return pools


@dataclass(frozen=True)
class Request:
    """One request of the served workload."""

    index: int
    op: str
    corpus: str
    script: int  #: index into the competition's user scripts
    edit: Optional[Tuple[int, int]]  #: (corpus position, replacement index)


def _exact_mix(rng: np.random.Generator, count: int, shares: Sequence[Tuple[object, float]]) -> List[object]:
    """*count* labels in exactly the given shares (largest remainders),
    in a seeded order: the mix is fixed and only its order is drawn."""
    quotas = [share * count for _, share in shares]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    labels = [label for (label, _), n in zip(shares, counts) for _ in range(n)]
    return [labels[i] for i in rng.permutation(len(labels))]


def serve_requests(seed: int, blocks: int, corpus_sizes: Dict[str, int]) -> List[Request]:
    """The seeded request sequence: *blocks* blocks of ``SERVE_BLOCK``.

    Each block carries the exact op mix, spread over the corpora and share
    of edited corpora, in a seeded order; each op takes a competition's
    user scripts in a rotation of its own, fixed like the pool itself.  So
    one seed's sequence differs from another's in order and in which
    corpus scripts the edits replace, not in how much of each kind of work
    it carries.
    """
    rng = _rng(seed, "serve-requests")
    names = sorted(corpus_sizes)
    turns = {
        (op, name): itertools.cycle(
            _rng(CORPUS_SEED, "rotation", op, name).permutation(USER_SCRIPTS).tolist()
        )
        for op, _ in OP_MIX
        for name in names
    }
    cells = [((op, name), share / len(names)) for op, share in OP_MIX for name in names]
    requests: List[Request] = []
    for _ in range(blocks):
        mix = _exact_mix(rng, SERVE_BLOCK, cells)
        edited = _exact_mix(rng, SERVE_BLOCK, ((True, EDIT_SHARE), (False, 1.0 - EDIT_SHARE)))
        for (op, corpus), edit in zip(mix, edited):
            change = None
            if edit:
                change = (int(rng.integers(corpus_sizes[corpus])), int(rng.integers(EDIT_SCRIPTS)))
            requests.append(Request(len(requests), op, corpus, next(turns[op, corpus]), change))
    return requests


def request_message(
    request: Request,
    competitions: Dict[str, "object"],
    pools: Dict[str, Dict[str, List[str]]],
) -> Dict[str, object]:
    """The wire request for one served request: the corpus travels inline;
    a ``score`` carries no data_dir, as the CLI client sends it."""
    return served_request(
        f"r{request.index}", request.op, competitions[request.corpus],
        pools[request.corpus], request.script, request.edit,
    )


def served_request(
    request_id: str,
    op: str,
    corpus: "object",
    pool: Dict[str, List[str]],
    script: int,
    edit: Optional[Tuple[int, int]] = None,
) -> Dict[str, object]:
    """One wire request on *corpus* for user script *script* of *pool*,
    with corpus script ``edit[0]`` replaced by edit script ``edit[1]``."""
    scripts = list(corpus.scripts)
    if edit is not None:
        position, replacement = edit
        scripts[position] = pool["edit"][replacement]
    params: Dict[str, object] = {
        "script": pool["user"][script],
        "corpus": scripts,
        "config": dict(SERVE_CONFIG),
    }
    if op != "score":
        params["data_dir"] = corpus.data_dir
    return {"id": request_id, "op": op, "params": params}


def work_dir(bench_dir: str) -> str:
    """A private scratch directory for this run inside the benchmark's
    own directory (removed when the run ends)."""
    path = os.path.join(bench_dir, ".work", f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
