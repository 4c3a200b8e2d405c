"""Seeded input generator for the three workloads.

The seed picks the quiver orientation of every configuration (seed 0 keeps
the default orientations) and the query sample of cli-queries, where each
(facet, drop) pair gets an orientation of its own.  The same seed always
gives the same inputs: `random.Random` seeded with a string does not depend
on PYTHONHASHSEED.  Generation runs before timing starts.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import List, Optional, Tuple

from dcluster import quiver, tilting, verify

Config = Tuple[str, int, int]   # (diagram, rank, d)
Arrows = Optional[List[List[int]]]   # None is the default orientation

VERIFY_GRID: List[Config] = [("A", 3, 2), ("A", 4, 2), ("D", 4, 2), ("A", 3, 3),
                             ("D", 5, 1)]
CENSUS: List[Config] = [("E", 6, 2), ("E", 7, 1)]
QUERY_CONFIG: Config = ("D", 5, 2)
QUERY_PAIRS = 60   # each pair is one `complements` and one `mutate` query


def config_name(cfg: Config) -> str:
    return "%s%d_d%d" % cfg


def _random_orientation(diagram: str, rank: int, rng: random.Random) -> Arrows:
    return [[u, v] if rng.random() < 0.5 else [v, u]
            for u, v in quiver.dynkin_edges(diagram, rank)]


def orientation(diagram: str, rank: int, seed: int) -> Arrows:
    """A random orientation of the diagram's edges, or None (default) for seed 0."""
    if seed == 0:
        return None
    rng = random.Random("orientation:%d:%s%d" % (seed, diagram, rank))
    return _random_orientation(diagram, rank, rng)


def orientation_arg(arrows: Arrows, work: Path) -> str:
    """The CLI --orientation value: 'default', or a JSON file written into `work`."""
    if arrows is None:
        return "default"
    text = json.dumps(arrows)
    path = work / ("orientation-%s.json" % hashlib.sha256(text.encode()).hexdigest()[:12])
    path.write_text(text + "\n")
    return str(path)


def query_sample(seed: int, config: Config = QUERY_CONFIG,
                 pairs: int = QUERY_PAIRS) -> List[Tuple[Arrows, List[str], str]]:
    """`pairs` (orientation, facet names, dropped name) triples on `config`.

    The facet is drawn from all tilting sets of the pair's orientation.  One
    orientation's facets are enumerated at a time, so that generation does
    not raise the workload process's peak memory."""
    diagram, rank, d = config
    rng = random.Random("queries:%d" % seed)
    draws = []
    for _ in range(pairs):
        arrows = None if seed == 0 else _random_orientation(diagram, rank, rng)
        draws.append((arrows, rng.random(), rng.random()))
    out: List = [None] * pairs
    for key in dict.fromkeys(json.dumps(arrows) for arrows, _, _ in draws):
        arrows = json.loads(key)
        ctx = verify.load_context(diagram, rank, d, orientation=arrows)
        facets = tilting.enumerate_tilting(ctx)
        for i, (drawn, u, v) in enumerate(draws):
            if json.dumps(drawn) == key:
                facet = facets[int(u * len(facets))]
                out[i] = (arrows, [ctx.oc.obj_name(x) for x in facet],
                          ctx.oc.obj_name(facet[int(v * len(facet))]))
    return out
