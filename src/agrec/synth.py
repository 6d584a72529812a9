"""Planted-preference worlds: synthetic benchmarks with known ground truth.

Each user gets a hidden taste of a few attribute keywords; every item carries
one signal keyword plus one aesthetic keyword, and users interact with the
items sharing a tasted keyword. Because the ground truth is generated from
attribute affinities, recovery (both warm and strict cold-start) is directly
measurable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evaluation import ColdCandidates
from .graphs import GraphBundle
from .ingest import SplitDataset, atomic_write, split_dataset
from .pipeline import build_bundle


@dataclass
class PlantedWorld:
    users: list[str]
    items: list[str]
    item_keywords: dict[str, list[str]]
    item_aesthetics: dict[str, list[str]]
    user_tastes: dict[str, list[str]]
    interactions: list[tuple[str, str]]


def planted_world(n_users: int = 200, n_items: int = 500,
                  n_item_keywords: int = 30, n_aesthetic_keywords: int = 15,
                  tastes_per_user: int = 3, interact_prob: float = 1.0,
                  seed: int = 0) -> PlantedWorld:
    """Generate a world where preference is exactly keyword overlap.

    Items are assigned signal/aesthetic keywords round-robin (so keyword
    degrees stay balanced); user tastes are distinct random keywords; a user
    interacts with each preferred item independently with interact_prob.
    """
    rng = np.random.default_rng(seed)
    keywords = [f"kw{j:02d}" for j in range(n_item_keywords)]
    aesthetics = [f"aes{j:02d}" for j in range(n_aesthetic_keywords)]
    users = [f"u{j:04d}" for j in range(n_users)]
    items = [f"i{j:04d}" for j in range(n_items)]

    item_keywords = {iid: [keywords[j % n_item_keywords]]
                     for j, iid in enumerate(items)}
    item_aesthetics = {iid: [aesthetics[j % n_aesthetic_keywords]]
                       for j, iid in enumerate(items)}

    user_tastes = {}
    for uid in users:
        picks = rng.choice(n_item_keywords, size=tastes_per_user, replace=False)
        user_tastes[uid] = [keywords[j] for j in sorted(picks)]

    interactions = []
    for uid in users:
        tasted = set(user_tastes[uid])
        for iid in items:
            if item_keywords[iid][0] in tasted:
                if interact_prob >= 1.0 or rng.random() < interact_prob:
                    interactions.append((uid, iid))
    return PlantedWorld(users=users, items=items, item_keywords=item_keywords,
                        item_aesthetics=item_aesthetics, user_tastes=user_tastes,
                        interactions=interactions)


def attribute_pairs(world: PlantedWorld,
                    exclude: set[str] | None = None) -> list[tuple[str, str]]:
    exclude = exclude or set()
    return [(iid, kw) for iid in world.items if iid not in exclude
            for kw in world.item_keywords[iid]]


def aesthetic_pairs(world: PlantedWorld,
                    exclude: set[str] | None = None) -> list[tuple[str, str]]:
    exclude = exclude or set()
    return [(iid, kw) for iid in world.items if iid not in exclude
            for kw in world.item_aesthetics[iid]]


def hold_out_items(world: PlantedWorld, fraction: float = 0.1) -> list[str]:
    """Pick a cold holdout stratified by signal keyword.

    Taking items round-robin across keyword groups keeps every user's cold
    positives small, which is what makes strict cold-start ranking
    measurable at small k.
    """
    n_cold = int(round(len(world.items) * fraction))
    groups: dict[str, list[str]] = {}
    for iid in world.items:
        groups.setdefault(world.item_keywords[iid][0], []).append(iid)
    cold: list[str] = []
    round_idx = 1
    while len(cold) < n_cold:
        for kw in sorted(groups):
            members = groups[kw]
            if round_idx <= len(members):
                cold.append(members[-round_idx])
                if len(cold) == n_cold:
                    break
        round_idx += 1
    return cold


def assemble_world(world: PlantedWorld, ratios=(0.8, 0.1, 0.1), seed: int = 0,
                   cold_items: list[str] | None = None,
                   ) -> tuple[GraphBundle, SplitDataset, ColdCandidates]:
    """Build graphs and an index-level split, optionally holding items out.

    Interactions with held-out items never enter any training structure;
    they become cold test pairs instead.
    """
    cold_set = set(cold_items or ())
    warm_inter = [(u, i) for u, i in world.interactions if i not in cold_set]
    cold_inter = [(u, i) for u, i in world.interactions if i in cold_set]

    id_split = split_dataset(warm_inter, ratios=ratios, seed=seed)
    return build_bundle(
        id_split, attribute_pairs(world, exclude=cold_set),
        aesthetic_pairs(world, exclude=cold_set),
        cold_keywords={iid: list(world.item_keywords[iid])
                       for iid in world.items if iid in cold_set},
        cold_pairs=cold_inter)


def write_world_files(world: PlantedWorld, directory) -> dict[str, str]:
    """Materialize a world in the CLI's input formats.

    Writes interactions.tsv, items.jsonl (signal keyword as category) and
    fixture.json with canned backend responses (signal keyword as the item
    response, aesthetic keyword as the aesthetic response). Returns paths.
    """
    import os

    os.makedirs(directory, exist_ok=True)
    paths = {
        "interactions": os.path.join(directory, "interactions.tsv"),
        "items": os.path.join(directory, "items.jsonl"),
        "fixture": os.path.join(directory, "fixture.json"),
    }
    with atomic_write(paths["interactions"]) as fh:
        fh.writelines(f"{u}\t{i}\n" for u, i in world.interactions)
    with atomic_write(paths["items"]) as fh:
        for j, iid in enumerate(world.items):
            fh.write(json.dumps({
                "item_id": iid,
                "category": world.item_keywords[iid][0],
                "price": float(10 * (j % 8) + 5),
                "image_ref": f"images/{iid}.jpg",
            }, sort_keys=True) + "\n")
    fixture = {iid: {"item": ", ".join(world.item_keywords[iid]),
                     "aesthetic": ", ".join(world.item_aesthetics[iid])}
               for iid in world.items}
    with atomic_write(paths["fixture"]) as fh:
        fh.write(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    return paths
