"""Seeded scenario generators, one per benchmark workload.

Each generator takes the seed and returns plain scenario mappings (the dict
form of a scenario YAML file); nothing else reaches the program. The seed
moves names, orders, values and formula content, while the sizes that set
the cost of an operation stay fixed, so that runs on different seeds load
the same layers equally hard.
"""

from __future__ import annotations

import random


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _conj(literals) -> str:
    return " & ".join(literals)


def guard_greedy(seed: int) -> dict:
    """Greedy blocking under heavy contention.

    Why: `blocking.greedy_block`, `build_matrix` and formula evaluation do
    nearly all the work here, so a change to those layers shows in op latency.
    45 agents own one variable each and sit on a cycle with chords; 75 short
    conjunctions (cycle edges, chords, and triangles over them) overlap, so
    agents share formulas. The batch cap is "auto" (75 requests), every
    queue round asks most agents to write true, and each tick therefore
    drives many formulas toward true and makes greedy block for many rounds.
    """
    rng = _rng("guard-greedy", seed)
    n, chords, triangles, rounds = 45, 15, 15, 120
    ring = [f"x{i:02d}" for i in range(n)]
    rng.shuffle(ring)
    formulas = [_conj((ring[p], ring[(p + 1) % n])) for p in range(n)]
    chord_pairs = []
    while len(chord_pairs) < chords:
        p, d = rng.randrange(n), rng.randrange(3, n // 2)
        pair = tuple(sorted((p, (p + d) % n)))
        if pair not in chord_pairs:
            chord_pairs.append(pair)
            formulas.append(_conj((ring[pair[0]], ring[pair[1]])))
    for p, q in rng.sample(chord_pairs, triangles):
        third = (q + 1) % n if rng.random() < 0.5 else (p + 1) % n
        formulas.append(_conj((ring[p], ring[q], f"~{ring[third]}")))
    agents = {f"a{v[1:]}": [v] for v in sorted(ring)}
    queue = []
    for _ in range(rounds):
        order = sorted(agents)
        rng.shuffle(order)
        for agent in order:
            queue.append({"agent": agent, "var": agents[agent][0], "value": rng.random() < 0.65})
    return {
        "agents": agents,
        "formulas": formulas,
        "initial": {v: False for v in ring},
        "queue": queue,
        "config": {"max_actions_per_tick": "auto", "policy": "greedy", "seed": seed},
    }


def guard_stream(seed: int) -> dict:
    """A long queue of mostly harmless requests in tiny ticks.

    Why: it loads the engine the opposite way to guard-greedy. Queue `push`
    during set-up and `take_batch_excluding` per tick, `apply_actions`,
    `is_secure`, the re-block registry and trace serialisation dominate;
    blocking does little. 40 agents, 8 critical formulas over 16 of them
    (so the auto batch is 8 requests) and a 20 000-request queue give about
    2 500 ticks. Blocked agents stay blocked for a random 1..4 ticks, so
    their later requests are dropped when they reach the front.
    """
    rng = _rng("guard-stream", seed)
    n_agents, n_guarded, n_formulas, n_requests = 40, 16, 8, 20_000
    variables = [f"v{i:02d}" for i in range(n_agents)]
    agents = {f"p{i:02d}": [variables[i]] for i in range(n_agents)}
    names = sorted(agents)
    guarded = rng.sample(names, n_guarded)
    formulas = []
    for k in range(n_formulas):
        width = 2 + k % 2
        members = [guarded[(2 * k + j) % n_guarded] for j in range(width)]
        formulas.append(_conj(agents[m][0] for m in members))
    queue = []
    for _ in range(n_requests):
        if rng.random() < 0.2:
            agent = rng.choice(guarded)
            value = rng.random() < 0.5
        else:
            agent = rng.choice(names)
            value = agent not in guarded and rng.random() < 0.5
        queue.append({"agent": agent, "var": agents[agent][0], "value": value})
    return {
        "agents": agents,
        "formulas": formulas,
        "initial": {v: False for v in variables},
        "queue": queue,
        "config": {
            "max_actions_per_tick": "auto",
            "policy": "greedy",
            "blocking_strategy": {
                "block_for_random_interval": {"low": 1, "high": 4, "seed": seed}
            },
            "seed": seed,
        },
    }


def guard_oracle(seed: int) -> dict:
    """Exact (nondeterministic) blocking with 10 distinct requesters a tick.

    Why: exponential candidate evaluation in `blocking.nondet_block` is the
    only cost here, a layer no other workload reaches. Ten agents sit on a
    ring, with a formula for every pair at ring distance 1 or 2 (20
    formulas). Ticks alternate between the ring's two halves: the five
    agents of one half write true while the five of the other half write
    false. Each tick therefore needs exactly three agents blocked, and the
    oracle evaluates 10 + 45 + 120 candidate keep-sets before it succeeds;
    the seed moves names, request order and the oracle's tie draws, not that
    cost.
    """
    rng = _rng("guard-oracle", seed)
    n, ticks = 10, 40
    ring = [f"y{i}" for i in range(n)]
    rng.shuffle(ring)
    formulas = [_conj((ring[p], ring[(p + d) % n])) for d in (1, 2) for p in range(n)]
    agents = {f"o{v[1:]}": [v] for v in sorted(ring)}
    owner = {v: a for a, (v,) in agents.items()}
    halves = (ring[: n // 2], ring[n // 2 :])
    queue = []
    for t in range(ticks):
        attack, reset = halves[t % 2], halves[1 - t % 2]
        batch = [(v, True) for v in attack] + [(v, False) for v in reset]
        rng.shuffle(batch)
        queue.extend({"agent": owner[v], "var": v, "value": value} for v, value in batch)
    return {
        "agents": agents,
        "formulas": formulas,
        "initial": {v: False for v in ring},
        "queue": queue,
        "config": {"max_actions_per_tick": n, "policy": "nondeterministic", "seed": seed},
    }


# (variables, agents, count) per size class of the analyze workload. Ranked
# by op cost, the median falls inside the 12-variable class and the 75th
# percentile inside the 13-variable class, never on a class boundary.
ANALYZE_CLASSES = ((11, 6, 12), (12, 7, 14), (13, 8, 10), (14, 9, 4))

# Formula kinds per scenario; scenario i of a class takes template i mod 4,
# so every class holds the same mix whatever the seed.
#   conj<k>  conjunction of k literals: true on few states (dense secure set)
#   dnf      (l & l) | (l & l)
#   sparse   l | l & l: true on half the states, so the secure set is sparse
#   equiv    (a & b) | (~a & ~b): secure states need a != b and no single
#            flip keeps that, so the secure set falls apart into components
ANALYZE_TEMPLATES = (
    ("conj3", "conj4", "conj2"),
    ("conj3", "dnf", "conj2"),
    ("sparse", "conj3", "dnf"),
    ("equiv", "conj3", "dnf"),
)


def _analyze_formula(rng: random.Random, kind: str, variables: list) -> tuple[str, list]:
    """One formula of the given kind as (text, variables it mentions). Each
    conjunction negates exactly one of its literals, so formulas of one kind
    cost the same to evaluate whatever the seed."""

    def conj(used):
        negated = rng.randrange(len(used))
        return _conj(f"~{v}" if i == negated else v for i, v in enumerate(used))

    if kind.startswith("conj"):
        used = rng.sample(variables, int(kind[4:]))
        return conj(used), used
    if kind == "dnf":
        used = rng.sample(variables, 4)
        return f"({conj(used[:2])}) | ({conj(used[2:])})", used
    if kind == "sparse":
        used = rng.sample(variables, 3)
        return f"{used[0]} | {conj(used[1:])}", used
    a, b = used = rng.sample(variables, 2)
    return f"({a} & {b}) | (~{a} & ~{b})", used


def analyze(seed: int) -> list[dict]:
    """Whole-state-space analysis of 40 small scenarios.

    Why: only the `analysis` / `model.diamond_holds` path runs (state graph,
    both connectivity checks, Horn labelling, minimal-coalition audit); the
    engine is idle. Scenarios have 11..14 variables, 6..9 agents and three
    formulas each; the formulas mix conjunctions with small disjunctions,
    giving dense and sparse (sometimes disconnected) secure sets. Start
    states are random and may be insecure, so scenarios load with
    `allow_insecure_start`.
    """
    rng = _rng("analyze", seed)
    scenarios = []
    for n_vars, n_agents, count in ANALYZE_CLASSES:
        for i in range(count):
            variables = [f"z{j:02d}" for j in range(n_vars)]
            rng.shuffle(variables)
            cells = [variables[k::n_agents] for k in range(n_agents)]  # sizes differ by <= 1
            agents = {f"c{k}": sorted(cell) for k, cell in enumerate(cells)}
            owner = {v: k for k, cell in enumerate(cells) for v in cell}
            formulas = []
            for kind in ANALYZE_TEMPLATES[i % len(ANALYZE_TEMPLATES)]:
                while True:
                    text, used = _analyze_formula(rng, kind, variables)
                    if len({owner[v] for v in used}) >= 2:  # validation needs two controllers
                        break
                formulas.append(text)
            scenarios.append(
                {
                    "agents": agents,
                    "formulas": formulas,
                    "initial": {v: rng.random() < 0.5 for v in sorted(variables)},
                    "queue": [],
                }
            )
    rng.shuffle(scenarios)
    return scenarios
