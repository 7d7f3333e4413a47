"""Seeded inputs for the performance ledger, made without the program's code.

Every input of a run comes from here: the knowledge-base edge lists, the
pairs each workload asks about and the write batches it sends.  Nothing in
this module imports ``repro``, so a change to the program's own generators
or to its path enumeration cannot silently change what the ledger measures.

Two KB shapes are generated:

* ``ent`` — the entertainment KB of the paper's figure benchmarks (220
  persons, 150 movies, 12 awards, 15 genres; Zipf-skewed credits).
* ``clustered`` — 250 communities of 40 entities, intra-degree 5, 2,500
  bridges, 8 labels of which 2 are undirected (~52k edges).

Each KB shape is generated from its own fixed seed (``KB_SEEDS``), and so
is the pool of pairs the workloads ask about (``POOL_SEED``).  The run's
``--seed`` draws the rest: the order of the reads, the write batches and,
on serve-zipf, the Zipf request stream.  Fixed KBs and pairs keep the work
a run measures the same across seeds, so seeds vary the order of the
requests and the writes, not the graph or the pairs.

Inputs are cached per workload, seed and version of this file under
``perfbench/.inputs`` and checked against the sha256 digest recorded when
they were written, so an edited generator never reuses old inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT_ROOT = HERE / ".inputs"
DIGESTS_FILE = HERE / "digests.json"
GENERATOR_ID = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]

#: The seed whose input digests are recorded in ``digests.json``.
DEFAULT_SEED = 1
#: KB generator seeds: the figure benchmarks' entertainment KB uses 7, the
#: ROADMAP's clustered KB 11.
KB_SEEDS = {"ent": 7, "clustered": 11}

#: Paper connectedness buckets (Section 5.1): simple paths of length <= 4.
#: The high bucket is capped so one pair cannot dominate a run's time.
BUCKETS = {"low": (1, 30), "medium": (30, 100), "high": (100, 1000)}
#: Pairs per bucket per round; each bucket is split into this many strata
#: by connectedness and a round takes one pair from each stratum.
STRATA = 10
#: enum-fresh asks the same ENUM_ROUNDS rounds (150 pairs) in every pass, a
#: pass being one fresh process; the plan holds ENUM_PASSES orders of them.
ENUM_ROUNDS = 5
ENUM_PASSES = 12

ENUM_SIZE_LIMIT = 5
DIST_SIZE_LIMIT = 4
SERVE_SIZE_LIMIT = 4
TOP_K = 10

#: enum-fresh writes a batch after every WRITE_EVERY reads, dist-fresh after
#: every DIST_WRITE_EVERY; a batch holds WRITE_BATCH edges.
WRITE_EVERY = 5
WRITE_BATCH = 2
DIST_READS_PER_ROUND = 20
DIST_WRITE_EVERY = 4
DIST_ROUNDS = 60
#: dist-fresh reads peak memory after this many rounds and always does at
#: least as many: about a third of the rounds a 20 s run does today.
DIST_MIN_ROUNDS = 6

#: serve-zipf: offered load and request mix.  Slot ``s`` is due
#: ``(s + 1) / SERVE_RATE`` seconds into the measured phase and goes out on
#: connection ``s % 2``, so each connection carries a request every 100 ms:
#: a reply comes back well over 40 ms before the next request on its
#: connection.  Every SERVE_FOLLOW_UP-th read of a round is a follow-up,
#: due 20 ms after the read before it on the same connection, as a page
#: that asks for a second pair once the first reply is in: it always meets
#: the keep-alive stall (see README.md), and the next slot of its
#: connection stays empty.  The two slots after a write stay empty, so no
#: read is due while a write of up to ~150 ms holds the KB write lock.
SERVE_RATE = 20.0
SERVE_FOLLOW_UP = 5
SERVE_KEYS = 400
SERVE_ZIPF_S = 0.9
SERVE_WARM_KEYS = 40
#: Edges of the one write batch sent during set-up (see _serve_plan).
SERVE_WARM_EDGES = 80
SERVE_OPS_PER_ROUND = 20  # 19 reads then 1 write batch
SERVE_ROUNDS = 40
#: The most popular keys asked again at the end, besides every written key.
SERVE_VERIFY_POPULAR = 12


# -- knowledge bases -----------------------------------------------------------


class EdgeList:
    """A deduplicated labelled edge list with the program's edge identity.

    Undirected edges are identified order-normalised, exactly as the KB does,
    so the same edge is never written twice in either orientation.
    """

    def __init__(self) -> None:
        self.edges: list[tuple[str, str, str, bool]] = []
        self._keys: set[tuple] = set()

    @staticmethod
    def key(source: str, label: str, target: str, directed: bool) -> tuple:
        if directed or source <= target:
            return (source, target, label, directed)
        return (target, source, label, directed)

    def __contains__(self, edge: tuple) -> bool:
        return self.key(*edge) in self._keys

    def add(self, source: str, label: str, target: str, directed: bool) -> bool:
        if source == target:
            return False
        key = self.key(source, label, target, directed)
        if key in self._keys:
            return False
        self._keys.add(key)
        self.edges.append((source, label, target, directed))
        return True


def entertainment_edges(seed: int) -> tuple[list[str], EdgeList]:
    """The figure benchmarks' entertainment KB shape; returns (persons, edges)."""
    rng = random.Random(seed)
    persons = [f"person_{i:04d}" for i in range(220)]
    movies = [f"movie_{i:04d}" for i in range(150)]
    awards = [f"award_{i:02d}" for i in range(12)]
    genres = [f"genre_{i:02d}" for i in range(15)]
    weights = [1.0 / (i + 1) ** 1.15 for i in range(len(persons))]
    edges = EdgeList()

    def credited(count: int) -> list[str]:
        chosen: list[str] = []
        while len(chosen) < count:
            person = rng.choices(persons, weights=weights)[0]
            if person not in chosen:
                chosen.append(person)
        return chosen

    for movie in movies:
        for person in credited(max(2, int(rng.gauss(4.5, 1.0)))):
            edges.add(movie, "starring", person, True)
        director = credited(1)[0]
        edges.add(movie, "director", director, True)
        if rng.random() < 0.6:
            producer = credited(1)[0]
            if producer != director:
                edges.add(movie, "producer", producer, True)
        if rng.random() < 0.5:
            edges.add(movie, "writer", credited(1)[0], True)
        for genre in rng.sample(genres, 1 + int(rng.random() * 2)):
            edges.add(movie, "genre", genre, True)
    shuffled = list(persons)
    rng.shuffle(shuffled)
    for i in range(len(persons) * 25 // 200):
        edges.add(shuffled[2 * i], "spouse", shuffled[2 * i + 1], False)
    rng.shuffle(shuffled)
    for i in range(len(persons) * 10 // 200):
        left, right = shuffled[2 * i], shuffled[2 * i + 1]
        if (left, "spouse", right, False) not in edges:
            edges.add(left, "sibling", right, False)
    for person in persons:
        if rng.random() < 0.3:
            for award in rng.sample(awards, 1 + (rng.random() < 0.2)):
                edges.add(person, "award_won", award, True)
    return persons, edges


CLUSTERED_LABELS = [f"rel{i}" for i in range(8)]
#: The last two labels are undirected, as in the ROADMAP's clustered KB.
UNDIRECTED_LABELS = frozenset(CLUSTERED_LABELS[-2:])


def clustered_edges(seed: int) -> tuple[list[list[str]], EdgeList]:
    """The ROADMAP's clustered KB shape; returns (communities, edges)."""
    rng = random.Random(seed)
    edges = EdgeList()
    communities = []
    for community in range(250):
        members = [f"c{community:03d}_n{i:02d}" for i in range(40)]
        communities.append(members)
        for member in members:
            peers: set[str] = set()
            while len(peers) < 5:
                peer = members[rng.randrange(40)]
                if peer != member:
                    peers.add(peer)
            for peer in sorted(peers):
                label = rng.choice(CLUSTERED_LABELS)
                edges.add(member, label, peer, label not in UNDIRECTED_LABELS)
    for _ in range(2500):
        first, second = rng.sample(range(250), 2)
        label = rng.choice(CLUSTERED_LABELS)
        edges.add(
            communities[first][rng.randrange(40)], label,
            communities[second][rng.randrange(40)], label not in UNDIRECTED_LABELS,
        )
    return communities, edges


def write_tsv(edges: EdgeList, path: Path) -> None:
    """The program's TSV edge-list format, directionality in column four."""
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# source\tlabel\ttarget\tdirectionality\n")
        for source, label, target, directed in edges.edges:
            flag = "directed" if directed else "undirected"
            handle.write(f"{source}\t{label}\t{target}\t{flag}\n")


def read_tsv(path: Path) -> list[tuple[str, str, str, bool]]:
    """Parse the edge list back, independently of the program's loader."""
    edges = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or not line.strip():
                continue
            source, label, target, flag = line.rstrip("\n").split("\t")
            edges.append((source, label, target, flag == "directed"))
    return edges


# -- the benchmark's own path counter ------------------------------------------


def adjacency(edges) -> dict[str, list[tuple[str, str, str]]]:
    """node -> [(neighbor, label, orientation)], orientation in/out/undirected."""
    adj: dict[str, list[tuple[str, str, str]]] = defaultdict(list)
    for edge in edges:
        add_to_adjacency(adj, edge)
    return adj


def add_to_adjacency(adj, edge) -> None:
    source, label, target, directed = edge
    if directed:
        adj[source].append((target, label, "out"))
        adj[target].append((source, label, "in"))
    else:
        adj[source].append((target, label, "undirected"))
        adj[target].append((source, label, "undirected"))


def _distances(adj, origin: str, depth: int) -> dict[str, int]:
    distance = {origin: 0}
    frontier = [origin]
    for hops in range(1, depth + 1):
        following = []
        for node in frontier:
            for neighbor, _label, _orientation in adj.get(node, ()):
                if neighbor not in distance:
                    distance[neighbor] = hops
                    following.append(neighbor)
        frontier = following
    return distance


def simple_paths(adj, start: str, end: str, max_length: int) -> list[tuple]:
    """Every simple path from ``start`` to ``end`` with at most ``max_length`` edges.

    A path is a tuple of ``(entity, label, orientation)`` steps, the entity
    being the one each step reaches.  Distances from ``end`` prune branches
    that cannot arrive in time, so the cost follows the number of paths.
    """
    to_end = _distances(adj, end, max_length)
    paths: list[tuple] = []
    on_path = {start}
    steps: list[tuple[str, str, str]] = []

    def extend(node: str, remaining: int) -> None:
        for neighbor, label, orientation in adj.get(node, ()):
            if neighbor == end:
                paths.append(tuple(steps) + ((neighbor, label, orientation),))
            elif (
                remaining > 1
                and neighbor not in on_path
                and to_end.get(neighbor, max_length + 1) < remaining
            ):
                on_path.add(neighbor)
                steps.append((neighbor, label, orientation))
                extend(neighbor, remaining - 1)
                steps.pop()
                on_path.discard(neighbor)

    if start != end and end in to_end:
        extend(start, max_length)
    return paths


def bucket_of(connectedness: int) -> str | None:
    for name, (lower, upper) in BUCKETS.items():
        if lower <= connectedness < upper:
            return name
    return None


# -- workload plans ---------------------------------------------------------
#
# Which pairs the workloads ask about is fixed (drawn with POOL_SEED), so
# runs of equal work ask about the same pairs whatever the seed.  The run's
# seed orders the reads and draws the write batches and, on serve-zipf, the
# Zipf request stream.  A plan holds ``passes``: each pass is a list of
# rounds, run in one fresh process.

POOL_SEED = 5


def _strata(pool: list, count: int, rng: random.Random) -> list[list]:
    """``pool`` sorted (by connectedness) and cut into ``count`` equal strata."""
    pool = sorted(pool)
    size = len(pool) // count
    strata = [pool[index * size:(index + 1) * size] for index in range(count)]
    for group in strata:
        rng.shuffle(group)
    return strata


def _enum_plan(seed: int, edges: EdgeList, persons: list[str]) -> dict:
    """The same bucketed person pairs in every pass, with leaf write batches.

    Candidates are the person pairs within two hops, bucketed by the
    benchmark's own path count; each bucket is cut into STRATA strata, and
    each round asks one pair of every stratum of every bucket.  The pass
    asks the pairs of ENUM_ROUNDS rounds, each once: every pass of every
    run asks the same 150 pairs, in its own order and with its own writes,
    so how many passes a run completes does not change which pairs its
    latencies come from.
    """
    pool_rng = random.Random(POOL_SEED)
    rng = random.Random(seed * 7919 + 1)
    adj = adjacency(edges.edges)
    candidates: dict[str, list[tuple[int, str, str]]] = {name: [] for name in BUCKETS}
    for start in persons:
        for end in sorted(_distances(adj, start, 2)):
            if end > start and end.startswith("person_"):
                count = len(simple_paths(adj, start, end, ENUM_SIZE_LIMIT - 1))
                bucket = bucket_of(count)
                if bucket is not None:
                    if pool_rng.random() < 0.5:
                        candidates[bucket].append((count, start, end))
                    else:
                        candidates[bucket].append((count, end, start))
    # the set-up pair is asked before the measured phase, so no pass asks it
    setup = min(candidates["low"])
    candidates["low"].remove(setup)
    strata = {name: _strata(pairs, STRATA, pool_rng) for name, pairs in candidates.items()}
    pool = [
        [[start, end, name, count] for name in BUCKETS for count, start, end in
         (group[index] for group in strata[name])]
        for index in range(ENUM_ROUNDS)
    ]
    passes = []
    for number in range(ENUM_PASSES):
        rounds = []
        for reads in rng.sample(pool, len(pool)):
            reads = rng.sample(reads, len(reads))
            writes = _leaf_writes(rng, persons, number * ENUM_ROUNDS + len(rounds))
            rounds.append(_interleave(reads, writes, WRITE_EVERY))
        passes.append(rounds)
    return {
        "measure": "size+monocount",
        "size_limit": ENUM_SIZE_LIMIT,
        "k": TOP_K,
        "setup_pair": [setup[1], setup[2]],
        "min_rounds": ENUM_ROUNDS,
        "passes": passes,
    }


def _leaf_writes(rng: random.Random, persons: list[str], round_index: int) -> list:
    """Write batches that attach new single-edge movies to persons.

    A new entity of degree one is never inside a simple path between two
    persons, so the pairs' connectedness (and the work they cost) does not
    drift however many rounds a run makes.
    """
    return [
        [[f"movie_w{round_index:03d}_{batch}_{i}", "starring",
          persons[rng.randrange(len(persons))], True] for i in range(WRITE_BATCH)]
        for batch in range(STRATA * len(BUCKETS) // WRITE_EVERY)
    ]


def _interleave(reads: list, writes: list, every: int) -> list:
    """Ops of one round: a write batch after every ``every`` reads."""
    ops: list = []
    pending = list(writes)
    for index, read in enumerate(reads, start=1):
        ops.append(["r"] + read)
        if index % every == 0 and pending:
            ops.append(["w", pending.pop(0)])
    return ops


def _community_writes(rng, communities, edges: EdgeList, count: int) -> list:
    """``count`` new intra-community edges (never duplicates of other edges)."""
    batch = []
    while len(batch) < count:
        members = communities[rng.randrange(len(communities))]
        source, target = rng.sample(members, 2)
        label = rng.choice(CLUSTERED_LABELS)
        edge = (source, label, target, label not in UNDIRECTED_LABELS)
        if edges.add(*edge):
            batch.append(list(edge))
    return batch


def _connected_pairs(rng, edges: list, count: int, adj, max_length: int) -> list:
    """``count`` distinct endpoint pairs of uniformly drawn input edges.

    Returns ``(connectedness, start, end)`` tuples, the connectedness being
    the number of simple paths of at most ``max_length`` edges.
    """
    pairs, taken = [], set()
    while len(pairs) < count:
        source, _label, target, _directed = edges[rng.randrange(len(edges))]
        if rng.random() < 0.5:
            source, target = target, source
        key = frozenset((source, target))
        if key not in taken:
            taken.add(key)
            pairs.append((len(simple_paths(adj, source, target, max_length)), source, target))
    return pairs


def _dist_plan(seed: int, edges: EdgeList, communities) -> dict:
    """Connected pairs stratified by connectedness, a write every few reads.

    A round asks DIST_READS_PER_ROUND // STRATA pairs of every stratum, so
    every round costs about the same.  The plan is one pass of DIST_ROUNDS
    rounds of distinct pairs, cut by time after at least ``min_rounds``.
    """
    pool_rng = random.Random(POOL_SEED)
    rng = random.Random(seed * 7919 + 2)
    base = list(edges.edges)
    pool = _connected_pairs(pool_rng, base, DIST_ROUNDS * DIST_READS_PER_ROUND + 1,
                            adjacency(base), DIST_SIZE_LIMIT - 1)
    setup = pool.pop()
    strata = _strata(pool, STRATA, pool_rng)
    per_stratum = DIST_READS_PER_ROUND // STRATA
    rounds = []
    for index in range(DIST_ROUNDS):
        reads = [
            [start, end, f"stratum{number}", count]
            for number, group in enumerate(strata)
            for count, start, end in group[index * per_stratum:(index + 1) * per_stratum]
        ]
        rng.shuffle(reads)
        writes = [
            _community_writes(rng, communities, edges, WRITE_BATCH)
            for _ in range(DIST_READS_PER_ROUND // DIST_WRITE_EVERY)
        ]
        rounds.append(_interleave(reads, writes, DIST_WRITE_EVERY))
    return {
        "measure": "global-dist",
        "size_limit": DIST_SIZE_LIMIT,
        "k": TOP_K,
        "setup_pair": [setup[1], setup[2]],
        "min_rounds": DIST_MIN_ROUNDS,
        "passes": [rounds],
    }


def _serve_plan(seed: int, edges: EdgeList, communities) -> dict:
    """A Zipf stream over keys of similar cost at a fixed rate, a write per round.

    The keys each round reads are Zipf-drawn once for all seeds; the seed
    orders them within the round.  Each write batch joins the two entities
    of a key the seed draws with a new edge; the run later asks every
    written key again and compares the server's answer with a fresh
    engine's.

    Keys are the connected pairs whose connectedness lies nearest the
    median, so which keys are popular hardly changes what a request costs.
    Set-up sends one large batch first: scoped invalidation walks from every
    entity the overlay delta has touched since the last compaction, so a
    server that has taken writes for a while purges more per write than a
    fresh one, and the measured phase starts in that steady state.  Each op
    ends with its slot (see SERVE_RATE).
    """
    pool_rng = random.Random(POOL_SEED)
    rng = random.Random(seed * 7919 + 3)
    base = list(edges.edges)
    candidates = sorted(_connected_pairs(pool_rng, base, 10 * SERVE_KEYS,
                                         adjacency(base), SERVE_SIZE_LIMIT - 1))
    median = candidates[len(candidates) // 2][0]
    candidates.sort(key=lambda pair: (abs(pair[0] - median), pair))
    keys = [[start, end] for _count, start, end in candidates[:SERVE_KEYS]]
    pool_rng.shuffle(keys)
    warm_writes = _community_writes(pool_rng, communities, edges, SERVE_WARM_EDGES)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(SERVE_KEYS)]
    rounds = []
    for _ in range(SERVE_ROUNDS):
        ops = [["r"] + key for key in pool_rng.choices(keys, weights, k=SERVE_OPS_PER_ROUND - 1)]
        rng.shuffle(ops)
        # one edge joins the two entities of a key, so that key's answer
        # changes and a stale cached answer shows; one lands anywhere
        free: list = []
        while not free:  # a popular key can run out of new edges
            start, end = rng.choices(keys, weights=weights)[0]
            free = [
                edge
                for label in CLUSTERED_LABELS
                for edge in ((start, label, end, label not in UNDIRECTED_LABELS),
                             (end, label, start, label not in UNDIRECTED_LABELS))
                if edge not in edges
            ]
        direct = rng.choice(free)
        edges.add(*direct)
        batch = [list(direct)] + _community_writes(rng, communities, edges, WRITE_BATCH - 1)
        ops.append(["w", batch, [start, end]])
        rounds.append(ops)
    slot = 0
    for ops in rounds:
        for index, op in enumerate(ops, start=1):
            if op[0] == "r" and index % SERVE_FOLLOW_UP == 0:
                op.append(slot - 2 + 0.4)  # 20 ms after its connection's last read
            else:
                op.append(slot)
            slot += 3 if op[0] == "w" else 1
    return {
        "measure": "size+monocount",
        "size_limit": SERVE_SIZE_LIMIT,
        "k": TOP_K,
        "rate": SERVE_RATE,
        "warm_writes": warm_writes,
        "warm_keys": keys[:SERVE_WARM_KEYS],
        "popular_keys": keys[:SERVE_VERIFY_POPULAR],
        "rounds": rounds,
    }


WORKLOADS = ("enum-fresh", "dist-fresh", "serve-zipf")


def _generate(workload: str, seed: int, directory: Path) -> None:
    if workload == "enum-fresh":
        persons, edges = entertainment_edges(KB_SEEDS["ent"])
        write_tsv(edges, directory / "kb.tsv")
        plan = _enum_plan(seed, edges, persons)
    else:
        communities, edges = clustered_edges(KB_SEEDS["clustered"])
        write_tsv(edges, directory / "kb.tsv")
        make = _dist_plan if workload == "dist-fresh" else _serve_plan
        plan = make(seed, edges, communities)
    plan["workload"] = workload
    plan["seed"] = seed
    with (directory / "plan.json").open("w", encoding="utf-8") as handle:
        json.dump(plan, handle, separators=(",", ":"))


def digest_of(directory: Path) -> str:
    sha = hashlib.sha256()
    for name in ("kb.tsv", "plan.json"):
        sha.update(name.encode())
        sha.update((directory / name).read_bytes())
    return sha.hexdigest()


def inputs(workload: str, seed: int) -> Path:
    """The input directory of ``workload`` at ``seed``, generated on first use."""
    directory = INPUT_ROOT / f"{workload}-s{seed}-{GENERATOR_ID}"
    try:
        if (directory / "digest").read_text().strip() == digest_of(directory):
            return directory
    except OSError:
        pass
    scratch = INPUT_ROOT / f".{directory.name}.{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    _generate(workload, seed, scratch)
    (scratch / "digest").write_text(digest_of(scratch) + "\n")
    shutil.rmtree(directory, ignore_errors=True)
    scratch.rename(directory)
    return directory


def check_default_digest(workload: str) -> None:
    """Fail when the default seed no longer yields the recorded inputs."""
    recorded = json.loads(DIGESTS_FILE.read_text())
    actual = digest_of(inputs(workload, DEFAULT_SEED))
    if recorded.get(workload) != actual:
        raise SystemExit(
            f"input digest mismatch for {workload} at seed {DEFAULT_SEED}: "
            f"recorded {recorded.get(workload)}, generated {actual}; "
            f"re-record with `python3 perfbench/run.py --record-digests` "
            f"only if the change of inputs is intended"
        )


def record_digests() -> dict:
    digests = {workload: digest_of(inputs(workload, DEFAULT_SEED)) for workload in WORKLOADS}
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return digests
