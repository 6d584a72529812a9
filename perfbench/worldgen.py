"""Seeded planted worlds written in agrec's public input formats.

The generator is the benchmark's own: it imports nothing from agrec, so a
change to the library's synthetic-data helpers cannot change the workloads.
Every user has a hidden taste for a few signal keywords and mostly interacts
with items carrying one of them; item popularity follows a Zipf law, so a
long tail of items falls under the popularity filter. A share of the items
is held out of the interactions file entirely and their pairs are written
separately, to be staged as strict cold-start test pairs.

Outputs, all byte-identical for the same spec and seed:
  interactions.tsv  user<TAB>item, the warm interactions
  items.jsonl       every item: brand, price, category, color, description,
                    image_ref
  fixture.json      canned extractor responses (item and aesthetic kinds)
  cold_pairs.tsv    user<TAB>item pairs of the held-out items
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

BRANDS = [f"House {c}" for c in "ABCDEFGHIJKLMNOPQRSTUVWX"]
COLORS = ["black", "white", "navy", "red", "olive", "beige", "grey", "teal",
          "mustard", "burgundy", "cream", "rust"]
STOP = ["the", "and", "with", "for", "a", "of", "in", "to"]
LIGHTING = ["soft light", "hard shadow", "backlit", "overcast", "studio flash"]
FILLERS = [f"f{j:03d}" for j in range(400)]
DESC_WORDS = 8   # two signal words, two fillers, the rest stop words


@dataclass(frozen=True)
class WorldSpec:
    users: int
    items: int
    keywords: int          # signal keywords that carry taste
    aesthetics: int        # aesthetic keywords
    tastes: int            # signal keywords each user likes
    per_user: int          # interactions drawn per user
    zipf: float = 0.0      # popularity exponent; 0 means uniform
    noise: float = 0.0     # share of each user's interactions off-taste
    cold: float = 0.1      # share of items held out as cold


def _name(prefix: str, j: int, width: int) -> str:
    return f"{prefix}{j:0{width}d}"


def generate(spec: WorldSpec, seed: int, directory) -> dict[str, str]:
    """Write the world for `seed` into `directory`; return the file paths."""
    rng = np.random.default_rng(seed)
    uw, iw = len(str(spec.users)), len(str(spec.items))
    users = [_name("u", j, uw) for j in range(spec.users)]
    items = [_name("i", j, iw) for j in range(spec.items)]
    kw_names = [_name("kw", j, 3) for j in range(spec.keywords)]
    aes_names = [_name("aes", j, 2) for j in range(spec.aesthetics)]

    # balanced signal keywords; aesthetics mostly follow the signal keyword
    item_kw = rng.permutation(np.arange(spec.items) % spec.keywords)
    item_aes = np.where(rng.random(spec.items) < 0.7,
                        item_kw % spec.aesthetics,
                        rng.integers(spec.aesthetics, size=spec.items))
    weight = (rng.permutation(spec.items) + 1.0) ** -spec.zipf
    cold = np.zeros(spec.items, dtype=bool)
    cold[rng.choice(spec.items, int(round(spec.items * spec.cold)),
                    replace=False)] = True

    members = [np.flatnonzero(item_kw == k) for k in range(spec.keywords)]
    warm, cold_pairs = [], []
    n_noise = int(round(spec.per_user * spec.noise))
    for u in users:
        tastes = rng.choice(spec.keywords, spec.tastes, replace=False)
        pool = np.concatenate([members[k] for k in tastes])
        n_sig = min(spec.per_user - n_noise, pool.size)
        p = weight[pool] / weight[pool].sum()
        picked = set(rng.choice(pool, n_sig, replace=False, p=p).tolist())
        while len(picked) < n_sig + n_noise:
            picked.add(int(rng.integers(spec.items)))
        for i in sorted(picked):
            (cold_pairs if cold[i] else warm).append((u, items[i]))

    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, name) for name in
             ("interactions.tsv", "items.jsonl", "fixture.json", "cold_pairs.tsv")}
    for name, pairs in (("interactions.tsv", warm), ("cold_pairs.tsv", cold_pairs)):
        with open(paths[name], "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{u}\t{i}\n" for u, i in pairs)

    fixture = {}
    with open(paths["items.jsonl"], "w", encoding="utf-8", newline="\n") as fh:
        for j, iid in enumerate(items):
            kw = kw_names[item_kw[j]]
            words = [f"{kw}m{int(m)}" for m in rng.integers(4, size=2)]
            words += [FILLERS[int(f)] for f in rng.integers(len(FILLERS), size=2)]
            words += [STOP[int(s)] for s in
                      rng.integers(len(STOP), size=DESC_WORDS - len(words))]
            order = rng.permutation(len(words))
            desc = " ".join(words[o] for o in order).capitalize() + "."
            fh.write(json.dumps({
                "item_id": iid,
                "brand": BRANDS[int(rng.integers(len(BRANDS)))],
                "price": round(float(rng.lognormal(3.5, 0.6)), 2),
                "category": kw,
                "color": COLORS[int(rng.integers(len(COLORS)))],
                "description": desc,
                "image_ref": f"images/{iid}.jpg",
            }, sort_keys=True) + "\n")
            fixture[iid] = {
                "item": f"{kw}, {COLORS[int(rng.integers(len(COLORS)))]}.",
                "aesthetic": f"{aes_names[item_aes[j]]}, "
                             f"{LIGHTING[int(rng.integers(len(LIGHTING)))]}",
            }
    with open(paths["fixture.json"], "w", encoding="utf-8", newline="\n") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths
